// Package trace reads and writes the textual trace-file format the
// System-Verilog-style monitors emit (one line per captured message,
// "@cycle index:message bits"), and computes summary statistics. In the
// post-silicon workflow this file — not the simulator's event stream — is
// all the validator gets: debugging sessions start from a parsed trace.
//
// Parse reads each line in place from the scanner's buffer and interns
// message names once per call, so a well-formed line allocates nothing
// beyond its share of the returned slice.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf8"

	"tracescale/internal/flow"
	"tracescale/internal/tbuf"
)

// Write renders entries one per line in the monitor format: each line is
// the entry's String followed by a newline.
func Write(w io.Writer, entries []tbuf.Entry) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, e := range entries {
		line = appendEntry(line[:0], e)
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return bw.Flush()
}

// appendEntry appends e.String() and a newline to b: the data bits are
// zero-padded to Bits digits, as the "%0*b" verb pads them.
func appendEntry(b []byte, e tbuf.Entry) []byte {
	b = append(b, '@')
	b = strconv.AppendUint(b, e.Cycle, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.Msg.Index), 10)
	b = append(b, ':')
	b = append(b, e.Msg.Name...)
	b = append(b, ' ')
	for pad := e.Bits - bits.Len64(e.Data|1); pad > 0; pad-- {
		b = append(b, '0')
	}
	b = strconv.AppendUint(b, e.Data, 2)
	return append(b, '\n')
}

// Parse reads a trace file. Blank lines and #-comments are skipped.
func Parse(r io.Reader) ([]tbuf.Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	names := map[string]string{}
	var out []tbuf.Entry
	lineNo := 0
	for sc.Scan() {
		lineNo++
		e, ok, err := parseLine(sc.Bytes(), names)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if ok {
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// parseLine reads one line; ok is false for a blank or comment line.
// Message names are interned through names.
func parseLine(line []byte, names map[string]string) (e tbuf.Entry, ok bool, err error) {
	f, n := fields(line)
	switch {
	case n == 0 || f[0][0] == '#':
		return e, false, nil
	case n != 3:
		return e, false, fmt.Errorf("want 3 fields %q", bytes.TrimSpace(line))
	}
	if f[0][0] != '@' {
		return e, false, fmt.Errorf("missing @cycle in %q", f[0])
	}
	cyc, err := parseDigits(f[0][1:], 10, 64)
	if err != nil {
		return e, false, fmt.Errorf("bad cycle: %w", numError("ParseUint", f[0][1:], err))
	}
	colon := bytes.IndexByte(f[1], ':')
	if colon < 0 {
		return e, false, fmt.Errorf("missing index:message in %q", f[1])
	}
	i, err := atoi(f[1][:colon])
	if err != nil {
		return e, false, fmt.Errorf("bad index: %w", err)
	}
	if i < 0 {
		// Instance indexes are architectural transaction tags; a monitor
		// can never emit a negative one, so this is file corruption.
		return e, false, fmt.Errorf("negative instance index %d in %q", i, f[1])
	}
	nb := f[1][colon+1:]
	if len(nb) == 0 {
		return e, false, fmt.Errorf("empty message name in %q", f[1])
	}
	name, seen := names[string(nb)]
	if !seen {
		name = string(nb)
		names[name] = name
	}
	// The bit count is the field length, so bound it before parsing: a
	// zero-padded field longer than 64 bits would still parse as a small
	// value but claim a width no message (or trace buffer rule) supports.
	if len(f[2]) > 64 {
		return e, false, fmt.Errorf("data field %d bits wide, messages are at most 64", len(f[2]))
	}
	data, err := parseDigits(f[2], 2, 64)
	if err != nil {
		return e, false, fmt.Errorf("bad data bits: %w", numError("ParseUint", f[2], err))
	}
	e = tbuf.Entry{Cycle: cyc, Msg: flow.IndexedMsg{Name: name, Index: i}, Data: data, Bits: len(f[2])}
	return e, true, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields splits line around runs of Unicode white space, as strings.Fields
// does, returning the first three fields and the number of fields, counted
// no further than four.
func fields(line []byte) (f [3][]byte, n int) {
	for i := 0; ; n++ {
		start := skip(line, i, true)
		if start == len(line) {
			return f, n
		}
		if n == len(f) {
			return f, n + 1
		}
		i = skip(line, start, false)
		f[n] = line[start:i]
	}
}

// skip steps over the runes of line from i on that are white space, when
// space is true, or that are not, and returns where that run ends.
// Invalid UTF-8 reads as one-byte runes that are not white space.
func skip(line []byte, i int, space bool) int {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(line[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += size
	}
	return i
}

// parseDigits reads b as an unsigned number in base 2 or 10 the way
// strconv.ParseUint(string(b), base, bitSize) does: left to right, failing
// with strconv.ErrSyntax at the first byte that is not a digit and with
// strconv.ErrRange at the first digit that overflows bitSize bits.
func parseDigits(b []byte, base uint64, bitSize int) (uint64, error) {
	if len(b) == 0 {
		return 0, strconv.ErrSyntax
	}
	limit := uint64(1)<<uint(bitSize) - 1
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d >= base {
			return 0, strconv.ErrSyntax
		}
		if n > (limit-d)/base {
			return 0, strconv.ErrRange
		}
		n = n*base + d
	}
	return n, nil
}

// atoi is strconv.Atoi(string(b)), error text included.
func atoi(b []byte) (int, error) {
	neg := len(b) > 0 && b[0] == '-'
	digits := b
	if len(b) > 0 && (b[0] == '+' || neg) {
		digits = b[1:]
	}
	n, err := parseDigits(digits, 10, strconv.IntSize)
	if err == nil && n > math.MaxInt && !(neg && n == math.MaxInt+1) {
		err = strconv.ErrRange
	}
	if err != nil {
		return 0, numError("Atoi", b, err)
	}
	if neg {
		return -int(n), nil
	}
	return int(n), nil
}

// numError is the error strconv's fn returns for input b.
func numError(fn string, b []byte, err error) error {
	return &strconv.NumError{Func: fn, Num: string(b), Err: err}
}

// Stats summarizes a trace.
type Stats struct {
	Entries    int
	FirstCycle uint64
	LastCycle  uint64
	// PerMessage counts entries per message name, PerIndexed per indexed
	// message.
	PerMessage map[string]int
	PerIndexed map[flow.IndexedMsg]int
}

// Summarize computes trace statistics.
func Summarize(entries []tbuf.Entry) Stats {
	s := Stats{
		Entries:    len(entries),
		PerMessage: make(map[string]int),
		PerIndexed: make(map[flow.IndexedMsg]int),
	}
	for i, e := range entries {
		if i == 0 || e.Cycle < s.FirstCycle {
			s.FirstCycle = e.Cycle
		}
		if e.Cycle > s.LastCycle {
			s.LastCycle = e.Cycle
		}
		s.PerMessage[e.Msg.Name]++
		s.PerIndexed[e.Msg]++
	}
	return s
}

// Span returns the number of cycles the trace covers.
func (s Stats) Span() uint64 {
	if s.Entries == 0 {
		return 0
	}
	return s.LastCycle - s.FirstCycle + 1
}

// Names returns the traced message names, sorted.
func (s Stats) Names() []string {
	out := make([]string, 0, len(s.PerMessage))
	for n := range s.PerMessage {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Project returns, in order, the indexed messages of one instance index —
// the localization observation (what the tag's execution looked like
// through the buffer).
func Project(entries []tbuf.Entry, index int) []flow.IndexedMsg {
	var out []flow.IndexedMsg
	for _, e := range entries {
		if e.Msg.Index == index {
			out = append(out, e.Msg)
		}
	}
	return out
}
