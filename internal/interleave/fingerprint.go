package interleave

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"tracescale/internal/flow"
)

// Fingerprint returns a content fingerprint of an instance listing: a hex
// digest over each instance's index and the complete structure of its flow
// (states with their init/stop/atomic markings, messages with widths,
// endpoints, cycle counts and subgroups, and the transition relation).
// Two listings fingerprint equally iff every position holds a structurally
// identical instance, regardless of whether they share *Flow pointers —
// the key a session cache needs to reuse one analysis across
// independently built but structurally identical scenarios.
//
// Listing order is part of the key. The interleaving's state space does
// not depend on it, but an analysis does: the message universe follows
// first appearance in the listing, and with it the order of Selected and
// every lowest-index tie-break. So the per-instance digests are hashed in
// listing order, and a permuted listing gets its own fingerprint.
func Fingerprint(instances []flow.Instance) string {
	h := sha256.New()
	h.Write(appendInt(nil, len(instances)))
	// Each distinct flow is serialized once; the instance digest covers
	// its index followed by that serialization.
	encoded := make(map[*flow.Flow][]byte, 1)
	var buf []byte
	for _, in := range instances {
		enc, ok := encoded[in.Flow]
		if !ok {
			enc = appendFlow(nil, in.Flow)
			encoded[in.Flow] = enc
		}
		buf = append(appendInt(buf[:0], in.Index), enc...)
		d := sha256.Sum256(buf)
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendFlow serializes a flow's structure unambiguously: every string is
// length-prefixed and every section is count-prefixed, so no concatenation
// of distinct flows can collide.
func appendFlow(b []byte, f *flow.Flow) []byte {
	b = appendStr(b, f.Name())
	b = appendInt(b, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		b = appendStr(b, f.StateName(s))
		bits := 0
		if f.IsStop(s) {
			bits |= 1
		}
		if f.IsAtomic(s) {
			bits |= 2
		}
		b = appendInt(b, bits)
	}
	b = appendInt(b, len(f.Init()))
	for _, s := range f.Init() {
		b = appendInt(b, s)
	}
	msgs := f.Messages()
	b = appendInt(b, len(msgs))
	for _, m := range msgs {
		b = appendStr(b, m.Name)
		b = appendInt(b, m.Width)
		b = appendStr(b, m.Src)
		b = appendStr(b, m.Dst)
		b = appendInt(b, m.Cycles)
		b = appendInt(b, len(m.Groups))
		for _, g := range m.Groups {
			b = appendStr(b, g.Name)
			b = appendInt(b, g.Width)
		}
	}
	edges := f.Edges()
	b = appendInt(b, len(edges))
	for _, e := range edges {
		b = appendInt(b, e.From)
		b = appendInt(b, e.To)
		b = appendInt(b, e.Msg)
	}
	return b
}

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendStr(b []byte, s string) []byte { return append(appendInt(b, len(s)), s...) }
