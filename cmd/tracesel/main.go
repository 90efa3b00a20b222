// Command tracesel runs trace-message selection on a usage-scenario
// specification:
//
//	tracesel -spec scenario.json            # select with the spec's budget
//	tracesel -spec scenario.json -width 64  # override the buffer width
//	tracesel -spec scenario.json -method knapsack -no-pack
//	tracesel -export-toy                    # print an example spec and exit
//	tracesel -export-t2 1                   # export a bundled T2 scenario
//	tracesel -export-synth 120              # export a 120-message synthetic spec
//	tracesel -spec s.json -metrics-json m.json  # dump pipeline metrics
//
// The spec format (JSON) describes flow DAGs, the indexed instances of the
// scenario, and the trace-buffer width; see internal/spec. Output reports
// the selected message combination, packed subgroups, utilization, mutual
// information gain, and flow-specification coverage.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"tracescale"
	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/opensparc"
	"tracescale/internal/spec"
	"tracescale/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "tracesel:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// run executes one tracesel invocation against the given argument list,
// writing all output to w. main is a thin exit-code shim around it, so
// tests drive the full CLI in-process with a bytes.Buffer.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracesel", flag.ContinueOnError)
	var (
		specPath  = fs.String("spec", "", "path to the scenario spec (JSON)")
		width     = fs.Int("width", 0, "override the trace buffer width")
		method    = fs.String("method", "exhaustive", "selection method: "+strings.Join(core.MethodNames(), ", "))
		noPack    = fs.Bool("no-pack", false, "disable Step-3 subgroup packing")
		exportToy = fs.Bool("export-toy", false, "print the toy cache-coherence spec and exit")
		exportT2  = fs.Int("export-t2", 0, "print the spec of a T2 usage scenario (1-3) and exit")
		exportSyn = fs.Int("export-synth", 0, "print a synthetic chain-flow spec with this many messages and exit")
		synFlows  = fs.Int("synth-flows", 2, "chain flows the -export-synth messages are spread across")
		synSeed   = fs.Int64("synth-seed", 1, "generator seed for -export-synth")
		dotFlows  = fs.String("dot-flows", "", "write per-flow Graphviz files into this directory")
		dotProd   = fs.String("dot-product", "", "write the interleaved flow as Graphviz to this file")
		metrics   = fs.String("metrics-json", "", "write the observability snapshot (interleave.*, core.*, pipeline.*) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	if *exportToy {
		f := flow.CacheCoherence()
		s := spec.FromFlows("toy-cache-coherence", []*flow.Flow{f},
			[]flow.Instance{{Flow: f, Index: 1}, {Flow: f, Index: 2}}, 2)
		return spec.Write(w, s)
	}
	if *exportSyn != 0 {
		insts, err := synth.Universe(*exportSyn, *synFlows, synth.Params{}, rand.New(rand.NewSource(*synSeed)))
		if err != nil {
			return err
		}
		flows := make([]*flow.Flow, len(insts))
		for i, in := range insts {
			flows[i] = in.Flow
		}
		name := fmt.Sprintf("synth-%d", *exportSyn)
		return spec.Write(w, spec.FromFlows(name, flows, insts, 32))
	}
	if *exportT2 != 0 {
		scenario, err := opensparc.ScenarioByID(*exportT2)
		if err != nil {
			return err
		}
		flows := scenario.Flows()
		insts := make([]flow.Instance, len(flows))
		for i, f := range flows {
			insts[i] = flow.Instance{Flow: f, Index: 1}
		}
		return spec.Write(w, spec.FromFlows(scenario.Name, flows, insts, 32))
	}
	if *specPath == "" {
		fs.Usage()
		return errUsage
	}

	file, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	defer file.Close()
	s, err := spec.Parse(file)
	if err != nil {
		return err
	}
	insts, err := s.Build()
	if err != nil {
		return err
	}
	ses, err := tracescale.NewSession(insts)
	if err != nil {
		return err
	}
	p, e := ses.Product(), ses.Evaluator()

	cfg := core.Config{BufferWidth: s.BufferWidth, DisablePacking: *noPack}
	if *width > 0 {
		cfg.BufferWidth = *width
	}
	if cfg.Method, err = core.ParseMethod(*method); err != nil {
		return err
	}
	res, err := ses.Select(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scenario: %s\n", s.Name)
	fmt.Fprintf(w, "interleaved flow: %d states, %d edges, %s executions\n",
		p.NumStates(), p.NumEdges(), p.TotalPaths())
	fmt.Fprintf(w, "buffer: %d bits, method: %s\n\n", cfg.BufferWidth, cfg.Method)
	fmt.Fprintf(w, "selected messages (%d bits):\n", res.SelectedWidth)
	for _, name := range res.Selected {
		m, _ := e.MessageByName(name)
		fmt.Fprintf(w, "  %-20s %2d bits  %s -> %s\n", m.Name, m.Width, m.Src, m.Dst)
	}
	if len(res.Packed) > 0 {
		fmt.Fprintln(w, "packed subgroups:")
		for _, g := range res.Packed {
			fmt.Fprintf(w, "  %-20s %2d bits  (of %s)\n", g.Message+"."+g.Group, g.Width, g.Message)
		}
	}
	fmt.Fprintf(w, "\nutilization: %.2f%%  gain: %.4f nats  coverage: %.2f%%\n",
		100*res.Utilization, res.Gain, 100*res.Coverage)

	if *dotFlows != "" {
		seen := map[string]bool{}
		for _, in := range insts {
			if seen[in.Flow.Name()] {
				continue
			}
			seen[in.Flow.Name()] = true
			f, err := os.Create(filepath.Join(*dotFlows, in.Flow.Name()+".dot"))
			if err != nil {
				return err
			}
			if err := in.Flow.WriteDOT(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "flow DOT files written to %s\n", *dotFlows)
	}
	if *dotProd != "" {
		f, err := os.Create(*dotProd)
		if err != nil {
			return err
		}
		if err := p.WriteDOT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "interleaving DOT written to %s\n", *dotProd)
	}
	if *metrics != "" {
		// The facade session goes through pipeline.Default, which records
		// into obs.Default — the snapshot covers this run's whole analysis.
		return obs.Default.WriteFile(*metrics)
	}
	return nil
}
