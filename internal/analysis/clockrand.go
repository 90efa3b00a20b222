package analysis

import "strings"

// ClockRand guards run reproducibility: the simulator, the selection
// pipeline, and the information-gain computation must be pure functions of
// their inputs and seeds, so the fuzz corpus and the paper's goldens replay
// bit-identically. In internal/{core,interleave,flow,soc,campaign} it
// forbids
//
//   - reading the wall clock: time.Now, time.Since, time.Until (trace
//     events carry sequence numbers, not timestamps; the only sanctioned
//     wall-clock use is registry-gated metrics timing, annotated
//     //lint:ignore clockrand), and
//   - the global math/rand source (rand.Intn, rand.Shuffle, ...): its
//     state is process-wide and unseedable per run. Constructing injected
//     generators (rand.New, rand.NewSource, rand.NewZipf) is allowed, as
//     are methods on an injected *rand.Rand.
var ClockRand = &Analyzer{
	Name:     "clockrand",
	Doc:      "no wall clock or global math/rand in the deterministic packages; inject seeds and clocks",
	Scope:    []string{"core", "interleave", "flow", "soc", "campaign"},
	FactsRun: runClockRand,
}

// randConstructors are the math/rand package-level functions that build
// injected generators rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// clockFuncs are the time functions that read the wall clock.
var clockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// runClockRand reports every clock/global-rand source site the collector
// recorded, including suppressed ones — the engine's suppression filter is
// the single place //lint:ignore comments take effect, so a site marked
// Ignored for detflow's taint purposes still surfaces here unless a
// clockrand suppression covers it.
func runClockRand(pass *Pass, pf *PkgFacts) {
	for _, ff := range pf.Funcs {
		for _, s := range ff.Sources {
			switch s.Kind {
			case SrcClock:
				pass.ReportPosf(s.Pos,
					"time.%s reads the wall clock; runs must be reproducible — inject a clock, or annotate registry-gated metrics timing with //lint:ignore clockrand <reason>",
					strings.TrimPrefix(s.Detail, "time."))
			case SrcGlobalRand:
				dot := strings.LastIndex(s.Detail, ".")
				pass.ReportPosf(s.Pos,
					"%s.%s draws from the process-global source; inject a seeded *rand.Rand instead",
					s.Detail[:dot], s.Detail[dot+1:])
			}
		}
	}
}

func isMathRand(path string) bool {
	return path == "math/rand" || strings.HasPrefix(path, "math/rand/")
}
