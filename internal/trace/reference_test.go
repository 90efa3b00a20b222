package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tracescale/internal/flow"
	"tracescale/internal/tbuf"
)

// refParse is the string-based parser Parse replaced, kept as the
// reference FuzzParse holds it equal to: the same entries and the same
// error text for every input.
func refParse(r io.Reader) ([]tbuf.Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []tbuf.Entry
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := refParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

func refParseLine(line string) (tbuf.Entry, error) {
	var e tbuf.Entry
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return e, fmt.Errorf("want 3 fields %q", line)
	}
	if !strings.HasPrefix(fields[0], "@") {
		return e, fmt.Errorf("missing @cycle in %q", fields[0])
	}
	cyc, err := strconv.ParseUint(fields[0][1:], 10, 64)
	if err != nil {
		return e, fmt.Errorf("bad cycle: %w", err)
	}
	e.Cycle = cyc
	idx, name, ok := strings.Cut(fields[1], ":")
	if !ok {
		return e, fmt.Errorf("missing index:message in %q", fields[1])
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return e, fmt.Errorf("bad index: %w", err)
	}
	if i < 0 {
		return e, fmt.Errorf("negative instance index %d in %q", i, fields[1])
	}
	if name == "" {
		return e, fmt.Errorf("empty message name in %q", fields[1])
	}
	e.Msg = flow.IndexedMsg{Name: name, Index: i}
	if len(fields[2]) > 64 {
		return e, fmt.Errorf("data field %d bits wide, messages are at most 64", len(fields[2]))
	}
	data, err := strconv.ParseUint(fields[2], 2, 64)
	if err != nil {
		return e, fmt.Errorf("bad data bits: %w", err)
	}
	e.Data = data
	e.Bits = len(fields[2])
	return e, nil
}
