package exp

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// usbRun is Table4(3), computed once for every test that checks it: its
// SigSeT selection is the slowest step of the evaluation.
var usbRun struct {
	once sync.Once
	res  *Table4Result
	err  error
}

func table4(t *testing.T) *Table4Result {
	t.Helper()
	usbRun.once.Do(func() { usbRun.res, usbRun.err = Table4(3) })
	if usbRun.err != nil {
		t.Fatal(usbRun.err)
	}
	return usbRun.res
}

// Table 4 / §5.4 qualitative claims: the application-level method selects
// every interface signal; the gate-level baselines select few, reconstruct
// no more than ~26% of the interface messages, and cover far less of the
// flow specification.
func TestTable4Shapes(t *testing.T) {
	res := table4(t)
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	sigFull, prFull := 0, 0
	for _, r := range res.Rows {
		if r.InfoGain.String() != "✓" {
			t.Errorf("InfoGain does not select %s", r.Signal)
		}
		if r.SigSeT.String() == "✓" {
			sigFull++
		}
		if r.PRNet.String() == "✓" {
			prFull++
		}
		if r.Module == "" {
			t.Errorf("%s has no module", r.Signal)
		}
	}
	if sigFull > 2 {
		t.Errorf("SigSeT fully selects %d interface signals; should prefer internal state", sigFull)
	}
	if prFull == 0 || prFull > 6 {
		t.Errorf("PRNet fully selects %d interface signals, want a few", prFull)
	}
	if len(res.InfoGainSelected) != 10 {
		t.Errorf("InfoGain selected %d signals, want 10", len(res.InfoGainSelected))
	}

	// §5.4: SRR-style selection reconstructs no more than ~26% of the
	// interface messages.
	if res.SigSeTReconstruction > 0.30 {
		t.Errorf("SigSeT reconstructs %.2f of interface state, want <= 0.30", res.SigSeTReconstruction)
	}
	if res.PRNetReconstruction > 0.40 {
		t.Errorf("PRNet reconstructs %.2f of interface state", res.PRNetReconstruction)
	}

	// Coverage ordering: ours >> PRNet > SigSeT.
	if res.InfoGainCoverage < 0.9 {
		t.Errorf("InfoGain coverage = %.4f", res.InfoGainCoverage)
	}
	if res.SigSeTCoverage >= res.PRNetCoverage {
		t.Errorf("SigSeT coverage %.4f >= PRNet coverage %.4f", res.SigSeTCoverage, res.PRNetCoverage)
	}
	if res.PRNetCoverage >= res.InfoGainCoverage {
		t.Errorf("PRNet coverage %.4f >= InfoGain coverage %.4f", res.PRNetCoverage, res.InfoGainCoverage)
	}
}

// §5.4 quantified: SigSeT tops SRR, InfoGain tops coverage, and each loses
// badly on the other axis.
func TestSRRCrossover(t *testing.T) {
	res := table4(t)
	if len(res.Crossover) != 3 {
		t.Fatalf("crossover rows = %d", len(res.Crossover))
	}
	byMethod := map[string]SRRRow{}
	for _, r := range res.Crossover {
		byMethod[r.Method] = r
	}
	sig, ours := byMethod["SigSeT"], byMethod["InfoGain"]
	if sig.SRR <= ours.SRR {
		t.Errorf("SigSeT SRR %.2f should beat InfoGain SRR %.2f", sig.SRR, ours.SRR)
	}
	if ours.Coverage <= sig.Coverage {
		t.Errorf("InfoGain coverage %.4f should beat SigSeT coverage %.4f", ours.Coverage, sig.Coverage)
	}
	if sig.SRR < 2 {
		t.Errorf("SigSeT SRR = %.2f; the SRR-optimized selection should restore several states per traced bit", sig.SRR)
	}
	if ours.Coverage < 0.9 {
		t.Errorf("InfoGain coverage = %.4f", ours.Coverage)
	}
	// The rendered section, from the same rows.
	var buf bytes.Buffer
	MarkdownSRRCrossover(&buf, res)
	for _, want := range []string{"## Extension — SRR vs coverage crossover (USB)", "| InfoGain | "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("crossover section missing %q", want)
		}
	}
}
