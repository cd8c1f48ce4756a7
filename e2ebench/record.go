package main

import (
	"encoding/binary"
	"math/rand"
)

// The record every workload sends: 64 bytes, little-endian.
//
//	[0:8)   due time, unix nanoseconds (the schedule's send time)
//	[8:16)  record id: connection << idShift | index within the connection
//	[16]    key in [0, numKeys)
//	[24:32) spout pop stamp, unix nanoseconds (written by the wrapped source)
//	[32:40) send stamp, unix nanoseconds: when the generator wrote it
//	[40:64) filler derived from the id
const (
	recSize = 64
	numKeys = 128
	idShift = 40
)

func encodeRecord(b []byte, due, send int64, id uint64, key uint8) {
	binary.LittleEndian.PutUint64(b[0:], uint64(due))
	binary.LittleEndian.PutUint64(b[8:], id)
	b[16] = key
	for i := 17; i < 24; i++ {
		b[i] = 0
	}
	binary.LittleEndian.PutUint64(b[24:], 0)
	binary.LittleEndian.PutUint64(b[32:], uint64(send))
	for i := 40; i < recSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], id*0x9e3779b97f4a7c15+uint64(i))
	}
}

func recordDue(b []byte) int64   { return int64(binary.LittleEndian.Uint64(b[0:])) }
func recordID(b []byte) uint64   { return binary.LittleEndian.Uint64(b[8:]) }
func recordKey(b []byte) uint8   { return b[16] }
func recordPop(b []byte) int64   { return int64(binary.LittleEndian.Uint64(b[24:])) }
func recordSend(b []byte) int64  { return int64(binary.LittleEndian.Uint64(b[32:])) }
func stampPop(b []byte, t int64) { binary.LittleEndian.PutUint64(b[24:], uint64(t)) }

// schedule is one connection's seeded open-loop arrival schedule: Poisson
// arrivals at rate records/s with uniformly drawn keys. The same (seed,
// conn, rate) always yields the same sequence.
type schedule struct {
	rng  *rand.Rand
	rate float64
	at   float64 // seconds since the schedule's epoch
}

func newSchedule(seed int64, conn int, rate float64) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 17)), rate: rate}
}

// next returns the next arrival's offset from the epoch and its key.
func (s *schedule) next() (offsetNS int64, key uint8) {
	s.at += s.rng.ExpFloat64() / s.rate
	return int64(s.at * 1e9), uint8(s.rng.Intn(numKeys))
}
