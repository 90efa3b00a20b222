package soc

import (
	"fmt"
	"io"

	"tracescale/internal/tbuf"
)

// Monitor converts interface events into trace-buffer entries according to
// a capture plan — the software equivalent of the System-Verilog monitors
// of the paper's Figure 4, which turn RTL signal activity into flow
// messages and write them to an output trace file.
type Monitor struct {
	plan *tbuf.CapturePlan
	buf  *tbuf.Buffer
	w    io.Writer // optional textual trace file
	seen int
}

// NewMonitor returns a monitor recording into buf under plan. If w is
// non-nil every captured entry is also written to it as a trace-file line.
func NewMonitor(plan *tbuf.CapturePlan, buf *tbuf.Buffer, w io.Writer) *Monitor {
	return &Monitor{plan: plan, buf: buf, w: w}
}

// Observe inspects one event and records it if the plan captures its
// message. Dropped events are invisible: they never appeared on the
// interface the monitor watches.
func (m *Monitor) Observe(ev Event) error {
	if ev.Dropped {
		return nil
	}
	entry, ok := m.plan.Capture(ev.Msg, ev.Data)
	if !ok {
		return nil
	}
	entry.Cycle = ev.Cycle
	m.buf.Record(entry)
	m.seen++
	if m.w != nil {
		if _, err := fmt.Fprintln(m.w, entry.String()); err != nil {
			return fmt.Errorf("soc: monitor trace write: %w", err)
		}
	}
	return nil
}

// Consume observes every event of a finished run in order.
func (m *Monitor) Consume(events []Event) error {
	for _, ev := range events {
		if err := m.Observe(ev); err != nil {
			return err
		}
	}
	return nil
}

// Captured returns the number of entries the monitor recorded.
func (m *Monitor) Captured() int { return m.seen }

// Buffer returns the trace buffer the monitor records into.
func (m *Monitor) Buffer() *tbuf.Buffer { return m.buf }
