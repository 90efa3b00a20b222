package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenTrace is two tags of the toy ReqE/GntE/Ack flow; buggyTrace
// corrupts tag 2's GntE payload and drops tag 2's Ack.
const (
	goldenTrace = `# golden reference run
@0 1:ReqE 1
@1 2:ReqE 1
@2 1:GntE 10
@3 1:Ack 1
@4 2:GntE 10
@5 2:Ack 1
`
	buggyTrace = `@0 1:ReqE 1
@1 2:ReqE 1
@2 1:GntE 10
@3 1:Ack 1
@4 2:GntE 11
`
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	golden := writeFile(t, dir, "golden.trace", goldenTrace)
	buggy := writeFile(t, dir, "buggy.trace", buggyTrace)
	corrupt := writeFile(t, dir, "corrupt.trace", "@0 1:ReqE 1\n@1 ReqE 1\n")
	missing := filepath.Join(dir, "missing.trace")

	tests := []struct {
		name    string
		args    []string
		want    string // the whole output
		wantErr string // substring of the error
	}{
		{
			name: "stats",
			args: []string{"-stats", golden},
			want: golden + `: 6 entries over cycles [0, 5] (span 6)
  Ack              2
  GntE             2
  ReqE             2
`,
		},
		{
			name: "project",
			args: []string{"-project", "2", buggy},
			want: `tag 2 (2 entries):
  2:ReqE
  2:GntE
`,
		},
		{
			name: "project absent tag",
			args: []string{"-project", "9", golden},
			want: "tag 9: no entries\n",
		},
		{
			// Tag 2 is the first whose entry count differs.
			name: "diff",
			args: []string{"-diff", golden, buggy},
			want: `focused on tag 2 (message: whole run / focused tag)
! Ack              reduced  / missing  (1 entries)
! GntE             corrupt  / corrupt  (2 entries)
  ReqE             normal   / normal   (2 entries)
2 of 3 messages affected
`,
		},
		{
			// Tag 1 ran clean: the whole-run damage shows, the focused view
			// reads normal.
			name: "diff focus",
			args: []string{"-diff", "-focus", "1", golden, buggy},
			want: `focused on tag 1 (message: whole run / focused tag)
! Ack              reduced  / normal   (1 entries)
! GntE             corrupt  / normal   (2 entries)
  ReqE             normal   / normal   (2 entries)
2 of 3 messages affected
`,
		},
		{
			name: "diff identical",
			args: []string{"-diff", golden, golden},
			want: `focused on tag 1 (message: whole run / focused tag)
  Ack              normal   / normal   (2 entries)
  GntE             normal   / normal   (2 entries)
  ReqE             normal   / normal   (2 entries)
0 of 3 messages affected
`,
		},
		{name: "corrupt trace", args: []string{"-stats", corrupt}, wantErr: "corrupt.trace: trace: line 2: missing index:message"},
		{name: "corrupt buggy trace", args: []string{"-diff", golden, corrupt}, wantErr: "line 2"},
		{name: "missing file", args: []string{"-project", "1", missing}, wantErr: "no such file"},
		{name: "missing golden", args: []string{"-diff", missing, buggy}, wantErr: "no such file"},
		{name: "no mode", args: []string{golden}, wantErr: "usage"},
		{name: "no args", args: nil, wantErr: "usage"},
		{name: "stats two files", args: []string{"-stats", golden, buggy}, wantErr: "usage"},
		{name: "diff one file", args: []string{"-diff", golden}, wantErr: "usage"},
		{name: "unknown flag", args: []string{"-bogus", golden}, wantErr: "usage"},
		{name: "bad focus", args: []string{"-diff", "-focus", "x", golden, buggy}, wantErr: "usage"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
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
}
