package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/wal"
	"github.com/drs-repro/drs/internal/worker"
)

// stackSpec describes one assembly of the serving stack, built the way
// `drsctl serve` builds it: WAL, gate, engine behind a NetworkSpout,
// optional loopback worker daemons, optional lease + supervisor, and
// optional TCP front door.
type stackSpec struct {
	walDir string
	// tmax (seconds) is the target the gate's model shedding and the
	// controller defend; 0 leaves the gate to ring backpressure only.
	tmax float64
	// topology declares the bolts and the edge from the "ingest" spout;
	// it returns the topology-ordered bolt names and their allocation.
	topology func(b *engine.TopologyBuilder) (names []string, alloc map[string]int)
	// workers worker daemons host workerBolts over loopback TCP; the
	// first localSlots executors in declaration order stay in-process.
	workers     int
	workerBolts map[string]engine.BoltFactory
	localSlots  int
	// supervise runs the lease + controller + supervisor loop.
	supervise       bool
	slotsPerMachine int
	maxMachines     int
	tracer          *obs.Tracer
	// frontDoor opens the TCP listener and runs the gate's replanning
	// loop (which also compacts the WAL). A replay round runs neither:
	// compaction would retire the seeded log the next round boots over.
	frontDoor bool
}

// controlInterval is serve's default measurement cadence Tm: the
// supervisor's tick and the gate's replanning period.
const controlInterval = 500 * time.Millisecond

// stack is one running assembly and the wrappers that time it.
type stack struct {
	spec      stackSpec
	log       *wal.Log
	recovered wal.Recovered
	walOpen   time.Duration
	gate      *ingest.Gate
	run       *engine.Run
	names     []string

	src    sourceStats
	remote remoteStats
	ctl    loopStats

	coord   *worker.Coordinator
	wl      net.Listener
	workers []*worker.Worker
	wwg     sync.WaitGroup
	sup     *loop.Supervisor
	lease   *cluster.Tenant

	front     net.Listener
	frontDone chan struct{}
	closeOnce sync.Once
}

func startStack(spec stackSpec) (s *stack, err error) {
	s = &stack{spec: spec}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	t0 := time.Now()
	s.log, s.recovered, err = wal.Open(wal.Options{Dir: spec.walDir})
	s.walOpen = time.Since(t0)
	if err != nil {
		return s, fmt.Errorf("wal open: %w", err)
	}
	maxSlots := spec.slotsPerMachine * spec.maxMachines
	s.gate = ingest.NewGate(ingest.GateConfig{
		Name:        "bench",
		Tmax:        spec.tmax,
		MaxSlots:    maxSlots,
		ReplanEvery: controlInterval,
		Tracer:      spec.tracer,
	})
	if err = s.gate.AttachWAL(s.log); err != nil {
		return s, err
	}
	b := engine.NewTopology()
	b.Spout("ingest", 1, func(int) engine.Spout {
		return &engine.NetworkSpout{Source: wrapSource(s.gate.Source(), &s.src), MaxBatch: 256}
	})
	names, alloc := spec.topology(b)
	s.names = names
	topo, err := b.Build()
	if err != nil {
		return s, err
	}
	s.run, err = topo.Start(engine.RunConfig{Alloc: alloc, QuiesceTimeout: 30 * time.Second, Tracer: spec.tracer})
	if err != nil {
		return s, err
	}
	if spec.workers > 0 {
		if err = s.startWorkers(); err != nil {
			return s, err
		}
	}
	if spec.supervise {
		if err = s.startSupervisor(maxSlots); err != nil {
			return s, err
		}
	}
	if spec.frontDoor {
		if err = s.gate.Start(); err != nil {
			return s, err
		}
		s.front, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return s, err
		}
		s.frontDone = make(chan struct{})
		go func() {
			defer close(s.frontDone)
			_ = ingest.ServeTCP(s.front, s.gate, ingest.ListenerConfig{})
		}()
	}
	return s, nil
}

// startWorkers dials the loopback worker daemons and binds the executors
// past the first localSlots to them, one executor per worker.
func (s *stack) startWorkers() error {
	var mu sync.Mutex
	next := 1 // machine 0 is this process
	s.coord = worker.NewCoordinator(worker.CoordinatorConfig{
		Seed: 1,
		Bind: func(string, int) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			id := next
			next++
			return id, nil
		},
	})
	var err error
	s.wl, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go s.coord.Serve(s.wl)
	placement := map[int]int{0: s.spec.localSlots}
	for i := 0; i < s.spec.workers; i++ {
		w, err := worker.Dial(worker.Config{
			Addr:  s.wl.Addr().String(),
			Name:  fmt.Sprintf("bench-w%d", i+1),
			Build: func(int64) (map[string]engine.BoltFactory, error) { return s.spec.workerBolts, nil },
		})
		if err != nil {
			return err
		}
		s.workers = append(s.workers, w)
		s.wwg.Add(1)
		go func() { defer s.wwg.Done(); _ = w.Run() }()
		placement[w.Machine()] = 1
	}
	if err := s.coord.WaitWorkers(s.spec.workers, 10*time.Second); err != nil {
		return err
	}
	rm := &remotes{byID: make(map[int]*timedRemote), inner: s.coord.Remote, st: &s.remote}
	plan := worker.ApplyPlacement(s.run, s.run.Allocation(), placement, 0, rm.get)
	if plan.Errors != 0 {
		return fmt.Errorf("worker placement: %+v", plan)
	}
	for bolt := range s.spec.workerBolts {
		if n, _ := s.run.RemoteBound(bolt); n == 0 {
			return fmt.Errorf("worker placement bound no %s executor remotely", bolt)
		}
	}
	return nil
}

// startSupervisor leases slots from a scheduler pool and runs the
// min-resource controller behind the loop, with serve's settings.
func (s *stack) startSupervisor(maxSlots int) error {
	pool, err := cluster.NewPool(cluster.PoolConfig{
		SlotsPerMachine: s.spec.slotsPerMachine,
		MaxMachines:     s.spec.maxMachines,
		Costs: cluster.CostModel{
			Rebalance:        200 * time.Millisecond,
			MachineColdStart: 500 * time.Millisecond,
			MachineRelease:   200 * time.Millisecond,
		},
	}, 1)
	if err != nil {
		return err
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool})
	if err != nil {
		return err
	}
	s.lease, err = sched.Register(cluster.TenantConfig{
		Name: "bench", MinSlots: len(s.names), InitialSlots: len(s.names),
	})
	if err != nil {
		return err
	}
	ctrl, err := core.NewController(core.ControllerConfig{
		Mode:                  core.ModeMinResource,
		Tmax:                  s.spec.tmax,
		MinGain:               0.05,
		ScaleInSlack:          0.3,
		MaxScaleInUtilization: 0.6,
	})
	if err != nil {
		return err
	}
	s.sup, err = loop.New(loop.Config{
		Target:    timedTarget{inner: ingest.SupervisedTarget{Inner: loop.EngineTarget(s.run), Gate: s.gate}, st: &s.ctl},
		Operators: s.names,
		Stepper:   timedStepper{inner: ctrl, st: &s.ctl},
		Pool:      wrapPool(s.lease, &s.ctl),
		Interval:  controlInterval,
		Tenant:    "bench",
	})
	if err != nil {
		return err
	}
	s.gate.SetControl(s.sup)
	return s.sup.Start()
}

// drained waits until the engine has completed want roots and the ring
// is empty.
func (s *stack) drained(want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n, _ := s.run.Completions()
		if n >= want && s.gate.Ring().Len() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d roots completed, %d in the ring", n, want, s.gate.Ring().Len())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close tears the stack down in serve's order: front door, gate,
// supervisor, workers, engine, log.
func (s *stack) close() error {
	var errs []error
	s.closeOnce.Do(func() {
		if s.front != nil {
			s.front.Close()
			<-s.frontDone
		}
		if s.gate != nil {
			s.gate.Close()
		}
		if s.sup != nil {
			s.sup.Stop()
		}
		if s.wl != nil {
			s.wl.Close()
		}
		if s.coord != nil {
			s.coord.Close()
		}
		for _, w := range s.workers {
			w.Close()
		}
		s.wwg.Wait()
		if s.run != nil {
			if err := s.run.Stop(); err != nil {
				errs = append(errs, err)
			}
		}
		if s.log != nil {
			if err := s.log.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	})
	return errors.Join(errs...)
}
