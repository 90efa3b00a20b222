package core

import "math/bits"

// bitset is a packed set of small non-negative integers (component states
// of a cover, or universe indices), one bit per member. All operations
// assume the operands were sized for the same universe.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// or unions o into b in place.
func (b bitset) or(o bitset) {
	for w, v := range o {
		b[w] |= v
	}
}

// countRange returns the cardinality of words [lo, hi) of b.
func (b bitset) countRange(lo, hi int) int {
	c := 0
	for _, w := range b[lo:hi] {
		c += bits.OnesCount64(w)
	}
	return c
}

// unset removes i from b.
func (b bitset) unset(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// clone returns an independent copy of b.
func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

// less orders bitsets as little-endian unsigned integers (word 0 holds the
// lowest members) — the multi-word generalization of the exhaustive scan's
// numeric uint64 mask order, used for its lowest-mask tie-break.
func (b bitset) less(o bitset) bool {
	for w := len(b) - 1; w >= 0; w-- {
		if b[w] != o[w] {
			return b[w] < o[w]
		}
	}
	return false
}

// clear empties b without reallocating.
func (b bitset) clear() {
	for w := range b {
		b[w] = 0
	}
}
