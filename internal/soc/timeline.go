package soc

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteTimeline renders a run's event stream as per-link ASCII lanes, the
// quick-look waveform a validator scans before opening a real viewer. One
// row per (src->dst) interface, one column per event slot, message
// initials in the cells; dropped events render as 'x', corrupted as '*'. maxEvents caps the width (0 = 80).
func WriteTimeline(w io.Writer, res *Result, maxEvents int) error {
	if maxEvents <= 0 {
		maxEvents = 80
	}
	events := res.Events
	if len(events) > maxEvents {
		events = events[:maxEvents]
	}

	links := map[string][]rune{}
	var order []string
	laneOf := func(ev Event) string {
		key := ev.Src + "->" + ev.Dst
		if _, ok := links[key]; !ok {
			links[key] = make([]rune, len(events))
			for i := range links[key] {
				links[key][i] = '.'
			}
			order = append(order, key)
		}
		return key
	}
	for i, ev := range events {
		lane := laneOf(ev)
		c := rune(ev.Msg.Name[0])
		switch {
		case ev.Dropped:
			c = 'x'
		case ev.Corrupted:
			c = '*'
		}
		links[lane][i] = c
	}
	sort.Strings(order)

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "timeline: %d of %d events (column = emission order; x dropped, * corrupted)\n",
		len(events), len(res.Events))
	width := 0
	for _, lane := range order {
		if len(lane) > width {
			width = len(lane)
		}
	}
	for _, lane := range order {
		fmt.Fprintf(bw, "  %-*s %s\n", width, lane, string(links[lane]))
	}
	if len(res.Symptoms) > 0 {
		fmt.Fprintf(bw, "symptoms: %d, first: %s\n", len(res.Symptoms), res.Symptoms[0])
	} else {
		fmt.Fprintln(bw, "symptoms: none")
	}
	return bw.Flush()
}
