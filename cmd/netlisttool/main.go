// Command netlisttool works the gate-level substrate from the command
// line: export the bundled USB design, generate ISCAS-89-style circuits,
// inspect designs, run trace-signal selection baselines, perform state
// restoration, and dump simulation waveforms.
//
//	netlisttool -export-usb > usb.net             # bundled design as text
//	netlisttool -gen-ffs 256 -seed 3 > gen.net    # generated circuit
//	netlisttool -in usb.net -stats                # nets/FFs/buses/modules
//	netlisttool -in usb.net -sigset 32            # SRR-based selection
//	netlisttool -in usb.net -prnet 32             # PageRank-based selection
//	netlisttool -in usb.net -restore rx_shift8    # restoration report
//	netlisttool -in usb.net -vcd run.vcd          # waveform of a random run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"tracescale/internal/circuits"
	"tracescale/internal/netlist"
	"tracescale/internal/restore"
	"tracescale/internal/sigsel"
	"tracescale/internal/usb"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "netlisttool:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = errors.New("usage")

// run executes one netlisttool invocation against the given argument
// list, reading "-in -" from stdin and writing all output to w. main is a
// thin exit-code shim around it, so tests drive the full CLI in-process.
func run(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("netlisttool", flag.ContinueOnError)
	var (
		exportUSB = fs.Bool("export-usb", false, "write the bundled USB design as a text netlist and exit")
		genFFs    = fs.Int("gen-ffs", 0, "generate a synthetic circuit with this many flip-flops and exit")
		in        = fs.String("in", "", "read a text netlist from this file ('-' for stdin)")
		stats     = fs.Bool("stats", false, "print design statistics")
		sigset    = fs.Int("sigset", 0, "run SigSeT selection with this flip-flop budget")
		prnet     = fs.Int("prnet", 0, "run PRNet selection with this flip-flop budget")
		restoreFF = fs.String("restore", "", "comma-separated flip-flops to trace; prints the restoration report")
		vcd       = fs.String("vcd", "", "simulate and write a VCD waveform to this file")
		cycles    = fs.Int("cycles", 48, "simulation length for -restore/-vcd/selection scoring")
		seed      = fs.Int64("seed", 1, "stimulus seed")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return errUsage
	}

	if *exportUSB {
		return netlist.Format(w, usb.Design())
	}
	if *genFFs > 0 {
		n, err := circuits.Generate(circuits.Params{FFs: *genFFs}, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		return netlist.Format(w, n)
	}
	if *in == "" {
		fs.Usage()
		return errUsage
	}
	n, err := readNetlist(*in, stdin)
	if err != nil {
		return err
	}

	did := false
	if *stats {
		did = true
		printStats(w, n)
	}
	if *sigset > 0 {
		did = true
		sel, err := sigsel.SigSeT(n, sigsel.SigSeTConfig{Budget: *sigset, Cycles: *cycles, Seed: *seed})
		if err != nil {
			return err
		}
		if err := printSelection(w, n, "SigSeT", sel, *cycles, *seed); err != nil {
			return err
		}
	}
	if *prnet > 0 {
		did = true
		sel, err := sigsel.PRNet(n, sigsel.PRNetConfig{Budget: *prnet})
		if err != nil {
			return err
		}
		if err := printSelection(w, n, "PRNet", sel, *cycles, *seed); err != nil {
			return err
		}
	}
	if *restoreFF != "" {
		did = true
		var traced []int
		for _, name := range strings.Split(*restoreFF, ",") {
			id, ok := n.NetID(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown net %q", name)
			}
			traced = append(traced, id)
		}
		tr := netlist.Record(n, *cycles, *seed)
		res, err := restore.Restore(tr, traced)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "traced %d flip-flops over %d cycles: restored %d of %d state-bits (SRR %.2f, %d sweeps)\n",
			len(traced), tr.Cycles(), res.KnownFFStates, len(n.FFs())*tr.Cycles(), res.SRR, res.Sweeps)
	}
	if *vcd != "" {
		did = true
		tr := netlist.Record(n, *cycles, *seed)
		if err := writeVCD(*vcd, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d-cycle waveform of %d nets to %s\n", tr.Cycles(), n.N(), *vcd)
	}
	if !did {
		fs.Usage()
		return errUsage
	}
	return nil
}

// readNetlist parses the text netlist at path, or stdin for "-".
func readNetlist(path string, stdin io.Reader) (*netlist.Netlist, error) {
	if path == "-" {
		return netlist.Parse(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netlist.Parse(f)
}

// writeVCD writes the waveform of every net to path. A failed Close is an
// error: the file may be short.
func writeVCD(path string, tr *netlist.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := netlist.WriteVCD(f, tr, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printStats(w io.Writer, n *netlist.Netlist) {
	gates := 0
	byModule := map[string]int{}
	for id := 0; id < n.N(); id++ {
		k := n.Gate(id).Kind
		if k != netlist.Input && k != netlist.DFF {
			gates++
		}
		byModule[n.Module(id)]++
	}
	fmt.Fprintf(w, "nets %d, flip-flops %d, inputs %d, gates %d, buses %d\n",
		n.N(), len(n.FFs()), len(n.Inputs()), gates, len(n.Buses()))
	modules := make([]string, 0, len(byModule))
	for m := range byModule {
		modules = append(modules, m)
	}
	sort.Strings(modules)
	for _, m := range modules {
		name := m
		if name == "" {
			name = "(top)"
		}
		fmt.Fprintf(w, "  %-20s %d nets\n", name, byModule[m])
	}
	for _, b := range n.Buses() {
		fmt.Fprintf(w, "  bus %-16s %d bits\n", b, len(n.Bus(b)))
	}
}

func printSelection(w io.Writer, n *netlist.Netlist, method string, sel []int, cycles int, seed int64) error {
	names := make([]string, len(sel))
	for i, id := range sel {
		names[i] = n.Name(id)
	}
	fmt.Fprintf(w, "%s selected %d flip-flops: %s\n", method, len(sel), strings.Join(names, ", "))
	tr := netlist.Record(n, cycles, seed)
	res, err := restore.Restore(tr, sel)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s restoration: %d of %d state-bits known (SRR %.2f)\n",
		method, res.KnownFFStates, len(n.FFs())*tr.Cycles(), res.SRR)
	return nil
}
