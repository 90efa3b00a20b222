package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse holds Parse equal to refParse on arbitrary input — the same
// entries, or the same error text — and checks that anything it accepts
// is written back as each entry's String line and survives a write/parse
// round trip.
func FuzzParse(f *testing.F) {
	f.Add("@10 1:reqtot 1010\n@12 2:grant 0001\n")
	f.Add("# comment only\n")
	f.Add("@0 0:x 0")
	f.Add("@18446744073709551615 -3:neg 1")
	f.Add("@18446744073709551616 1:big 1")
	f.Add("@7 -1:neg 101\n")
	f.Add("@7 +4:plus 1\n@8 -0:zero 0\n")
	f.Add("@7 99999999999999999999x:range 1\n@8 -9223372036854775808:min 1\n")
	f.Add("@7 9223372036854775808:big 1\n")
	f.Add("@8 4294967296x:over32 1\n")
	f.Add("@ 1:nocycle 1\n@7 :noindex 1\n@7 -:sign 1\n")
	f.Add("@7 1:wide " + strings.Repeat("0", 65) + "1\n")
	f.Add("\u00a0@7\u20021:spaces\u3000" + "0\u2029\r\n  \t# indented comment\n")
	f.Add("@7 1:bad\xc2 0\n@7 1:a:b 01 extra\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		entries, err := Parse(strings.NewReader(in))
		want, wantErr := refParse(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("input %q: error %v, reference %v", in, err, wantErr)
		}
		if !reflect.DeepEqual(entries, want) {
			t.Fatalf("input %q: entries %+v, reference %+v", in, entries, want)
		}
		if err != nil {
			return
		}
		var buf, lines bytes.Buffer
		if err := Write(&buf, entries); err != nil {
			t.Fatalf("Write after successful Parse: %v", err)
		}
		for _, e := range entries {
			lines.WriteString(e.String() + "\n")
		}
		if buf.String() != lines.String() {
			t.Fatalf("Write wrote %q, the entries' String lines are %q", buf.String(), lines.String())
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-Parse: %v\ninput: %q\nwrote: %q", err, in, lines.String())
		}
		if !reflect.DeepEqual(back, entries) {
			t.Fatalf("round trip changed the entries: %+v vs %+v", back, entries)
		}
	})
}
