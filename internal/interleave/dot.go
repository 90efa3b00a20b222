package interleave

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders the interleaved flow as a Graphviz digraph in the style
// of the paper's Figure 2: product states named (s1, s2, ...), edges
// labeled with indexed messages, initial states bold, stop states double
// circles. Intended for small products; it fails above maxDotStates.
func (p *Product) WriteDOT(w io.Writer) error {
	const maxDotStates = 4096
	if p.NumStates() > maxDotStates {
		return fmt.Errorf("interleave: %d states is too large for DOT rendering", p.NumStates())
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph interleaving {")
	fmt.Fprintln(bw, "  rankdir=LR;")
	fmt.Fprintln(bw, "  node [shape=circle, fontsize=10];")
	isInit := map[int]bool{}
	for _, s := range p.init {
		isInit[s] = true
	}
	isStop := map[int]bool{}
	for _, s := range p.stop {
		isStop[s] = true
	}
	for u := 0; u < p.NumStates(); u++ {
		attrs := ""
		if isStop[u] {
			attrs = "shape=doublecircle"
		}
		if isInit[u] {
			if attrs != "" {
				attrs += ", "
			}
			attrs += "penwidth=2"
		}
		fmt.Fprintf(bw, "  %d [label=%q, %s];\n", u, p.StateName(u), attrs)
	}
	for u := 0; u < p.NumStates(); u++ {
		for _, e := range p.out[u] {
			fmt.Fprintf(bw, "  %d -> %d [label=%q];\n", u, e.To, p.Msg(e).String())
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
