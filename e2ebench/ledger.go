package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// ledger is the run's correctness audit. The generator (or the seeded
// log) books which record ids were acknowledged; the stateful stage
// tallies keys; the sink marks every id it sees. verify then demands
// exactly-once: every acknowledged id reached the sink once, nothing
// else did, and the tallies match the acknowledged per-key counts.
type ledger struct {
	acked []*bitset // per connection: ids the front door acknowledged
	seen  []*bitset // per connection: ids the sink received

	tallies             [numKeys]atomic.Int64 // stateful stage, per key
	dups, foreign, sunk atomic.Int64
}

func newLedger(conns, perConn int) *ledger {
	l := &ledger{}
	for i := 0; i < conns; i++ {
		l.acked = append(l.acked, newBitset(perConn))
		l.seen = append(l.seen, newBitset(perConn))
	}
	return l
}

// tally books one record at the stateful stage.
func (l *ledger) tally(key int64) {
	if key >= 0 && key < numKeys {
		l.tallies[key].Add(1)
	} else {
		l.foreign.Add(1)
	}
}

// sink books one record's arrival at the sink.
func (l *ledger) sink(id uint64) {
	l.sunk.Add(1)
	conn := id >> idShift
	if conn >= uint64(len(l.seen)) {
		l.foreign.Add(1)
		return
	}
	dup, ok := l.seen[conn].set(id & (1<<idShift - 1))
	switch {
	case !ok:
		l.foreign.Add(1)
	case dup:
		l.dups.Add(1)
	}
}

// auditResult is verify's verdict; failures() sums every mismatch.
type auditResult struct {
	Lost, Duplicated, Unexpected, Foreign int64
	KeyMismatch                           int64 // Σ|tally − acked| over keys
	CountMismatch                         int64 // |completions − admitted| + |admitted − acked|
}

func (a auditResult) failures() int64 {
	return a.Lost + a.Duplicated + a.Unexpected + a.Foreign + a.KeyMismatch + a.CountMismatch
}

func (a auditResult) String() string {
	if a.failures() == 0 {
		return "PASS"
	}
	return fmt.Sprintf("FAIL (lost %d, duplicated %d, unexpected %d, foreign %d, key mismatch %d, count mismatch %d)",
		a.Lost, a.Duplicated, a.Unexpected, a.Foreign, a.KeyMismatch, a.CountMismatch)
}

// verify compares the sink's view with the acknowledged set. ackedKeys
// is the acknowledged per-key count; admitted and completions are the
// gate's and the engine's own counts, acks the acknowledgements seen.
func (l *ledger) verify(ackedKeys *[numKeys]int64, acks, admitted, completions int64) auditResult {
	var r auditResult
	for c := range l.acked {
		a, s := l.acked[c].words, l.seen[c].words
		for i := range a {
			aw, sw := a[i].Load(), s[i].Load()
			r.Lost += int64(bits.OnesCount64(aw &^ sw))
			r.Unexpected += int64(bits.OnesCount64(sw &^ aw))
		}
	}
	r.Duplicated = l.dups.Load()
	r.Foreign = l.foreign.Load()
	for k := range l.tallies {
		r.KeyMismatch += abs64(l.tallies[k].Load() - ackedKeys[k])
	}
	r.CountMismatch = abs64(completions-admitted) + abs64(admitted-acks)
	return r
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
