package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent indexes the same spanLog (-1 for an op's root span);
// Op ties every span of one op together.
type span struct {
	Name       string
	Op, Parent int
	Start, End int64 // ns since the log's epoch
}

// spanLog records one client's spans in memory. Each client goroutine
// owns its log, so recording takes no lock. A nil log records nothing.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

// begin opens a span and returns its handle for end.
func (l *spanLog) begin(name string, op, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(l.epoch))})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].End = int64(time.Since(l.epoch))
}

// do runs f inside a span named name.
func (l *spanLog) do(name string, op, parent int, f func()) {
	i := l.begin(name, op, parent)
	f()
	l.end(i)
}

// layerTimes is the busy and self time per span name across logs, in ns.
// Busy sums span durations; self subtracts from each span the union of
// its children's intervals, so overlapping children count once.
type layerTimes struct {
	busy, self map[string]int64
}

func aggregate(logs ...*spanLog) layerTimes {
	lt := layerTimes{busy: map[string]int64{}, self: map[string]int64{}}
	for _, l := range logs {
		if l == nil {
			continue
		}
		children := make([][]interval, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			}
		}
		for i, s := range l.spans {
			d := s.End - s.Start
			lt.busy[s.Name] += d
			lt.self[s.Name] += d - coveredWithin(children[i], s.Start, s.End)
		}
	}
	return lt
}

// spanFile is the on-disk form of a traced run's spans: span names once,
// then one row per span — [name index, op, parent, start ns, end ns] —
// per client, parents indexing the same client's rows.
type spanFile struct {
	Names   []string     `json:"names"`
	Clients [][][5]int64 `json:"clients"`
}

// writeSpans writes every log's spans to dir/name.
func writeSpans(dir, name string, logs ...*spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	var f spanFile
	index := map[string]int64{}
	for _, l := range logs {
		if l == nil {
			continue
		}
		rows := make([][5]int64, len(l.spans))
		for i, s := range l.spans {
			k, ok := index[s.Name]
			if !ok {
				k = int64(len(f.Names))
				index[s.Name] = k
				f.Names = append(f.Names, s.Name)
			}
			rows[i] = [5]int64{k, int64(s.Op), int64(s.Parent), s.Start, s.End}
		}
		f.Clients = append(f.Clients, rows)
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
