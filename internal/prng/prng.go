// Package prng records one math/rand stream so that consumers seeded alike
// share one seeding. rand.NewSource expands its seed into a 607-word
// state, which costs more than the few hundred draws a simulation or a
// debugging session makes. A Stream seeds its source on the first draw and
// records the values as its readers reach them; every reader starts at the
// first value, so a rand.Rand over one draws exactly what
// rand.New(rand.NewSource(seed)) draws, method for method.
package prng

import "math/rand"

// block is how many values a Stream records per extension; a grid point's
// consumers read from a few hundred to a few thousand.
const block = 256

// Stream is one recorded math/rand stream. It is not safe for concurrent
// use: its readers append to one shared record.
type Stream struct {
	seed int64
	src  rand.Source64 // seeded on the first draw past buf
	buf  []uint64      // every value drawn from src, in order
}

// New returns the stream rand.NewSource(seed) produces. Nothing is seeded
// until a reader draws.
func New(seed int64) *Stream { return &Stream{seed: seed} }

// Seed returns the seed the stream replays.
func (s *Stream) Seed() int64 { return s.seed }

// Rand returns a generator that reads the stream from its start.
func (s *Stream) Rand() *rand.Rand { return rand.New(&reader{s: s}) }

// extend records the next block of values.
func (s *Stream) extend() {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		s.buf = make([]uint64, 0, 4*block)
	}
	for range block {
		s.buf = append(s.buf, s.src.Uint64())
	}
}

// reader is one consumer's position in a Stream. It implements
// rand.Source64: without Uint64, rand.Rand.Uint64 would draw twice.
type reader struct {
	s   *Stream
	pos int
}

func (r *reader) Uint64() uint64 {
	if r.pos == len(r.s.buf) {
		r.s.extend()
	}
	v := r.s.buf[r.pos]
	r.pos++
	return v
}

// Int63 clears the top bit, as math/rand's own source does.
func (r *reader) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// Seed panics: a reader replays its stream's one seed, so reseeding it is
// a caller's bug.
func (r *reader) Seed(int64) { panic("prng: a stream reader cannot be reseeded") }
