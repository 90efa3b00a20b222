package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracescale/internal/netlist"
)

// usbStats is -stats on the bundled USB design.
const usbStats = `nets 785, flip-flops 496, inputs 5, gates 284, buses 10
  (top)                5 nets
  Packet assembler     331 nets
  Packet decoder       61 nets
  Protocol engine      264 nets
  UTMI line speed      124 nets
  bus data_pid_sel     2 bits
  bus rx_data          8 bits
  bus rx_data_done     1 bits
  bus rx_data_valid    1 bits
  bus rx_valid         1 bits
  bus send_token       1 bits
  bus token_pid_sel    2 bits
  bus token_valid      1 bits
  bus tx_data          8 bits
  bus tx_valid         1 bits
`

func TestRun(t *testing.T) {
	dir := t.TempDir()
	var usbNet bytes.Buffer
	if err := run([]string{"-export-usb"}, nil, &usbNet); err != nil {
		t.Fatal(err)
	}
	design := filepath.Join(dir, "usb.net")
	if err := os.WriteFile(design, usbNet.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	vcd := filepath.Join(dir, "run.vcd")

	tests := []struct {
		name    string
		args    []string
		stdin   string
		want    string // the whole output
		wantErr string // substring of the error
	}{
		{name: "stats", args: []string{"-in", design, "-stats"}, want: usbStats},
		{
			// The exported design parses back to the bundled one.
			name:  "export-usb read back via stdin",
			args:  []string{"-in", "-", "-stats"},
			stdin: usbNet.String(),
			want:  usbStats,
		},
		{
			// SigSeT simulates every candidate: 8 cycles keep it to a
			// fraction of a second (the default 48 take seconds).
			name: "sigset",
			args: []string{"-in", design, "-sigset", "8", "-cycles", "8"},
			want: `SigSeT selected 8 flip-flops: tx_valid, rx_shift5, tx_shift7, retry3_2, rx_elastic7_5, retry0_2, fifo7_0, fifo7_1
SigSeT restoration: 1196 of 3968 state-bits known (SRR 18.69)
`,
		},
		{
			name: "prnet",
			args: []string{"-in", design, "-prnet", "8"},
			want: `PRNet selected 8 flip-flops: tx_valid, rx_shift0, rx_shift1, rx_shift2, rx_shift3, rx_shift4, send_token, rx_shift5
PRNet restoration: 12335 of 23808 state-bits known (SRR 32.12)
`,
		},
		{
			name: "restore",
			args: []string{"-in", design, "-restore", "rx_shift8"},
			want: "traced 1 flip-flops over 48 cycles: restored 4020 of 23808 state-bits (SRR 83.75, 10 sweeps)\n",
		},
		{
			name: "gen-ffs",
			args: []string{"-gen-ffs", "4", "-seed", "3"},
			want: `MODULE(gen)
INPUT(pi0)
INPUT(pi1)
INPUT(pi2)
INPUT(pi3)
sh0_0 = DFF(pi0)
sh0_1 = DFF(sh0_0)
lg2 = NOR(sh0_0, sh0_0, pi3)
r2 = DFF(lg2)
lg3 = XOR(r2, sh0_0)
r3 = DFF(lg3)
`,
		},
		{
			name: "vcd",
			args: []string{"-in", design, "-vcd", vcd},
			want: "wrote 48-cycle waveform of 785 nets to " + vcd + "\n",
		},
		{name: "unknown net", args: []string{"-in", design, "-restore", "rx_shift8,nope"}, wantErr: `unknown net "nope"`},
		{name: "missing file", args: []string{"-in", filepath.Join(dir, "missing.net"), "-stats"}, wantErr: "no such file"},
		{name: "vcd into a missing directory", args: []string{"-in", design, "-vcd", filepath.Join(dir, "none", "run.vcd")}, wantErr: "no such file"},
		{name: "missing -in", args: []string{"-stats"}, wantErr: "usage"},
		{name: "stray argument", args: []string{"-in", design, "-stats", "extra"}, wantErr: "usage"},
		{name: "nothing to do", args: []string{"-in", design}, wantErr: "usage"},
		{name: "no args", args: nil, wantErr: "usage"},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: "usage"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, strings.NewReader(tc.stdin), &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if tc.wantErr == "usage" && err != errUsage {
					t.Errorf("err = %v, want errUsage (exit 2)", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != tc.want {
				t.Errorf("output:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}

	// The waveform file holds every net of the recorded run.
	n, err := netlist.Parse(bytes.NewReader(usbNet.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := netlist.WriteVCD(&want, netlist.Record(n, 48, 1), nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s: %d bytes differ from the recorded run's %d-byte waveform", vcd, len(got), want.Len())
	}
}
