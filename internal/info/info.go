// Package info provides the information-theoretic primitives behind
// tracescale's message selection metric: entropy, Kullback-Leibler
// divergence, and mutual information, all in natural units (nats).
//
// The paper's worked example (DAC'18, §3.2) evaluates
// I(X;Y1) = 1.073 for the toy cache-coherence interleaving, which equals
// 12 * (1/18) * ln 5 — i.e. the paper measures information in nats. All
// functions here therefore use the natural logarithm; use the Bits
// conversion helper when base-2 output is desired.
package info

import (
	"fmt"
	"math"
)

// Ln2 converts nats to bits: bits = nats / Ln2.
const Ln2 = math.Ln2

// Bits converts a quantity in nats to bits.
func Bits(nats float64) float64 { return nats / Ln2 }

// Entropy returns the Shannon entropy (in nats) of the distribution p.
// Zero-probability entries contribute nothing. Entropy does not require p
// to be normalized but negative entries panic, since they always indicate
// a caller bug.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v < 0 {
			panic(fmt.Sprintf("info: negative probability %g", v))
		}
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// KL returns the Kullback-Leibler divergence D(p || q) in nats. It is
// +Inf when p has mass where q does not. Panics on mismatched lengths or
// negative entries.
func KL(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("info: KL length mismatch %d vs %d", len(p), len(q)))
	}
	d := 0.0
	for i, pi := range p {
		qi := q[i]
		if pi < 0 || qi < 0 {
			panic(fmt.Sprintf("info: negative probability p=%g q=%g", pi, qi))
		}
		if pi == 0 {
			continue
		}
		if qi == 0 {
			return math.Inf(1)
		}
		d += pi * math.Log(pi/qi)
	}
	return d
}

// Normalize scales the non-negative weight vector w so it sums to 1 and
// returns the result (a fresh slice). An all-zero vector is returned
// unchanged (as a copy).
func Normalize(w []float64) []float64 {
	out := make([]float64, len(w))
	sum := 0.0
	for _, v := range w {
		if v < 0 {
			panic(fmt.Sprintf("info: negative weight %g", v))
		}
		sum += v
	}
	if sum == 0 {
		return out
	}
	for i, v := range w {
		out[i] = v / sum
	}
	return out
}

// MutualInformation computes I(X;Y) in nats from a full joint distribution
// joint[x][y]. The marginals are computed internally; joint need not be
// normalized (it is normalized by its total mass first).
func MutualInformation(joint [][]float64) float64 {
	total := 0.0
	for _, row := range joint {
		for _, v := range row {
			if v < 0 {
				panic(fmt.Sprintf("info: negative joint mass %g", v))
			}
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	nx := len(joint)
	ny := 0
	for _, row := range joint {
		if len(row) > ny {
			ny = len(row)
		}
	}
	px := make([]float64, nx)
	py := make([]float64, ny)
	for x, row := range joint {
		for y, v := range row {
			p := v / total
			px[x] += p
			py[y] += p
		}
	}
	mi := 0.0
	for x, row := range joint {
		for y, v := range row {
			if v == 0 {
				continue
			}
			p := v / total
			mi += p * math.Log(p/(px[x]*py[y]))
		}
	}
	// Clamp tiny negative round-off; true MI is non-negative.
	if mi < 0 && mi > -1e-12 {
		mi = 0
	}
	return mi
}

// Accumulator sums mutual-information terms p(x,y)·ln(p(x,y)/(p(x)p(y)))
// where the three probabilities are supplied by the caller. tracescale uses
// it for the paper's MI variant in which p(x) is uniform over interleaved
// states and p(y) is the edge-label frequency over *all* indexed messages
// (so the candidate's terms need not sum to one).
type Accumulator struct {
	sum float64
	n   int
}

// Add accumulates one term. Terms with pxy == 0 contribute nothing.
// Panics if any probability is negative, or if pxy > 0 while px or py is 0
// (such a term is ill-defined and indicates a caller bug).
func (a *Accumulator) Add(pxy, px, py float64) {
	if !checkTerm(pxy, px, py) {
		return
	}
	a.sum += pxy * math.Log(pxy/(px*py))
	a.n++
}

// AddN accumulates n equal terms as one product n·term — the form a
// histogram of equal terms takes — under Add's rules.
func (a *Accumulator) AddN(n int, pxy, px, py float64) {
	if !checkTerm(pxy, px, py) {
		return
	}
	a.sum += float64(n) * (pxy * math.Log(pxy/(px*py)))
	a.n += n
}

// checkTerm validates one term's probabilities and reports whether it
// contributes (pxy > 0).
func checkTerm(pxy, px, py float64) bool {
	if pxy < 0 || px < 0 || py < 0 {
		panic(fmt.Sprintf("info: negative probability pxy=%g px=%g py=%g", pxy, px, py))
	}
	if pxy == 0 {
		return false
	}
	if px == 0 || py == 0 {
		panic(fmt.Sprintf("info: pxy=%g with zero marginal px=%g py=%g", pxy, px, py))
	}
	return true
}

// Value returns the accumulated mutual information in nats.
func (a *Accumulator) Value() float64 { return a.sum }

// Terms returns the number of non-zero terms accumulated.
func (a *Accumulator) Terms() int { return a.n }
