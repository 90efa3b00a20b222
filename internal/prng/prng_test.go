package prng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// draw makes one draw of kind op from r, with arg setting its bound, and
// returns what it drew. The bounds near 2^30 and 2^62 make Int31n and
// Int63n reject about half their draws, so one call reads a varying number
// of values; Perm and Shuffle read one per element.
func draw(r *rand.Rand, op, arg byte) []uint64 {
	switch op % 7 {
	case 0:
		return []uint64{uint64(r.Intn(int(arg) + 1))}
	case 1:
		return []uint64{uint64(r.Int31n(1<<30 + int32(arg) + 1))}
	case 2:
		return []uint64{uint64(r.Int63n(1<<62 + int64(arg) + 1))}
	case 3:
		return []uint64{math.Float64bits(r.Float64())}
	case 4:
		return []uint64{r.Uint64()}
	case 5:
		var out []uint64
		for _, v := range r.Perm(int(arg % 17)) {
			out = append(out, uint64(v))
		}
		return out
	default:
		out := make([]uint64, arg%17)
		for i := range out {
			out[i] = uint64(i)
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// checkSchedule runs readers readers of one Stream through schedule, two
// bytes a step: the first picks the reader and the draw, the second the
// draw's bound. Each reader is made at its first step, so later readers
// start when the record is already long. Every draw must equal the one a
// generator of the reader's own rand.NewSource(seed) makes at that point.
func checkSchedule(t *testing.T, seed int64, readers int, schedule []byte) {
	t.Helper()
	s := New(seed)
	if s.Seed() != seed {
		t.Fatalf("Seed() = %d, want %d", s.Seed(), seed)
	}
	got := make([]*rand.Rand, readers)
	want := make([]*rand.Rand, readers)
	for step := 0; step+1 < len(schedule); step += 2 {
		k := int(schedule[step]) % readers
		op := schedule[step] / byte(readers)
		if got[k] == nil {
			got[k], want[k] = s.Rand(), rand.New(rand.NewSource(seed))
		}
		g, w := draw(got[k], op, schedule[step+1]), draw(want[k], op, schedule[step+1])
		if !slices.Equal(g, w) {
			t.Fatalf("seed %d, %d readers, step %d: reader %d draw %d(%d) = %v, want %v",
				seed, readers, step/2, k, op%7, schedule[step+1], g, w)
		}
	}
}

func TestStreamMatchesOwnSource(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 5, math.MinInt64, math.MaxInt64} {
		for readers := 1; readers <= 4; readers++ {
			// 3,000 steps read several thousand values per reader, so the
			// record extends many times, past its first allocation.
			schedule := make([]byte, 6000)
			rand.New(rand.NewSource(seed ^ int64(readers))).Read(schedule)
			checkSchedule(t, seed, readers, schedule)
		}
	}
}

func TestReaderSeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("reseeding a reader did not panic")
		}
	}()
	New(9).Rand().Seed(9)
}

// A stream nobody draws from seeds nothing.
func TestStreamSeedsLazily(t *testing.T) {
	s := New(3)
	s.Rand()
	if s.src != nil || len(s.buf) != 0 {
		t.Error("making a reader seeded the source")
	}
}

func FuzzStream(f *testing.F) {
	f.Add(int64(5), uint8(2), []byte{0, 3, 1, 200, 12, 9, 5, 16, 6, 16, 2, 255})
	f.Add(int64(math.MinInt64), uint8(3), []byte{4, 0, 7, 1, 11, 2})
	f.Fuzz(func(t *testing.T, seed int64, readers uint8, schedule []byte) {
		checkSchedule(t, seed, int(readers%4)+1, schedule)
	})
}
