package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spechint/internal/fsim"
)

// TestParseErrors is the table-driven error wall: every malformed trace must
// fail with a *ParseError carrying the exact 1-based line number of the
// offending record (specrun -trace-file surfaces these verbatim as exit 1).
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		line    int
		wantSub string
	}{
		{"unknown-record", "open a\nfrobnicate\nclose\n", 2, "unknown record"},
		{"read-no-open", "read 0 10\n", 1, "no file open"},
		{"close-no-open", "# header\n\nclose\n", 3, "no file open"},
		{"double-open", "open a\nopen b\n", 2, "already open"},
		{"open-operands", "open a b\n", 1, "open wants 1 operand"},
		{"open-missing-path", "open\n", 1, "open wants 1 operand"},
		{"read-operands", "open a\nread 5\n", 2, "read wants 2 operands"},
		{"read-bad-offset", "open a\nread x 10\n", 2, "not a decimal number"},
		{"read-negative-offset", "open a\nread -1 10\n", 2, "out of range"},
		{"read-zero-length", "open a\nread 0 0\n", 2, "out of range"},
		{"read-huge-length", fmt.Sprintf("open a\nread 0 %d\n", MaxReadLen+1), 2, "out of range"},
		{"think-operands", "think\n", 1, "think wants 1 operand"},
		{"think-negative", "think -5\n", 1, "out of range"},
		{"think-bad-number", "think 1e9\n", 1, "not a decimal number"},
		{"close-operands", "open a\nclose now\n", 2, "close takes no operands"},
		{"unclosed-open", "think 3\nopen a\nread 0 8\n", 2, "never closed"},
		{"empty-path-chars", "open \x01bad\n", 1, "not printable ASCII"},
		{"long-path", "open " + strings.Repeat("p", MaxPathLen+1) + "\n", 1, "longer than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted malformed trace:\n%s", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if pe.Line != tc.line {
				t.Errorf("error line = %d, want %d (%v)", pe.Line, tc.line, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.wantSub)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("line %d", tc.line)) {
				t.Errorf("error text %q does not carry its line number", err.Error())
			}
		})
	}
}

// TestParseFormatRoundTrip: Parse∘Format is the identity on valid traces,
// and Format∘Parse is the identity on canonical text (comments and blank
// lines erased).
func TestParseFormatRoundTrip(t *testing.T) {
	src := "# captured trace\n\nopen data/a.bin\nread 0 8192\nthink 500\nread 8192 4096\nclose\nopen data/b.bin\nread 100 1\nclose\nthink 9\n"
	tr, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Recs) != 9 {
		t.Fatalf("parsed %d records, want 9", len(tr.Recs))
	}
	text := Format(tr)
	tr2, err := Parse(text)
	if err != nil {
		t.Fatalf("canonical text failed to reparse: %v\n%s", err, text)
	}
	if Format(tr2) != text {
		t.Errorf("Format∘Parse is not idempotent:\n%s\nvs\n%s", text, Format(tr2))
	}
	if len(tr2.Recs) != len(tr.Recs) {
		t.Errorf("round trip changed record count: %d vs %d", len(tr2.Recs), len(tr.Recs))
	}
	for i := range tr.Recs {
		if tr.Recs[i] != tr2.Recs[i] {
			t.Errorf("record %d changed: %+v vs %+v", i, tr.Recs[i], tr2.Recs[i])
		}
	}
}

// TestParseEmpty: a trace of comments and blank lines is valid and empty.
func TestParseEmpty(t *testing.T) {
	tr, err := Parse("# nothing\n\n   \n")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Recs) != 0 {
		t.Fatalf("empty input parsed to %d records", len(tr.Recs))
	}
	if Format(tr) != "" {
		t.Errorf("Format of empty trace = %q", Format(tr))
	}
}

// TestCaptureNormalizes: interleaved reads across files become close/open
// pairs, think deltas ride in front of their reads, and the finalized trace
// always reparses.
func TestCaptureNormalizes(t *testing.T) {
	c := &Capture{}
	c.Read("a", 0, 100, 0)
	c.Read("a", 100, 100, 40)
	c.Read("b", 0, 50, 7)    // switch: close a, open b
	c.Read("a", 200, 100, 0) // switch back
	tr := c.Trace()

	want := "open a\nread 0 100\nthink 40\nread 100 100\nthink 7\nclose\nopen b\nread 0 50\nclose\nopen a\nread 200 100\nclose\n"
	if got := Format(tr); got != want {
		t.Errorf("normalized trace:\n%s\nwant:\n%s", got, want)
	}
	if _, err := Parse(Format(tr)); err != nil {
		t.Errorf("captured trace does not reparse: %v", err)
	}
	reads := tr.Reads()
	if len(reads) != 4 {
		t.Fatalf("Reads() returned %d, want 4", len(reads))
	}
	if reads[2].Path != "b" || reads[3].Path != "a" {
		t.Errorf("Reads() paths wrong: %+v", reads)
	}
	// The capture stays usable after Trace().
	c.Read("b", 50, 50, 0)
	if got := len(c.Trace().Reads()); got != 5 {
		t.Errorf("capture after Trace(): %d reads, want 5", got)
	}
}

// TestPopulateFS sizes files to the furthest read and leaves existing files
// alone.
func TestPopulateFS(t *testing.T) {
	tr, err := Parse("open have\nread 0 10\nclose\nopen miss\nread 100 28\nread 4000 96\nclose\nopen never-read\nclose\n")
	if err != nil {
		t.Fatal(err)
	}
	fs := fsim.New(8192)
	fs.MustCreate("have", make([]byte, 3))
	if err := PopulateFS(fs, tr); err != nil {
		t.Fatal(err)
	}
	if f, _ := fs.Lookup("have"); f.Size() != 3 {
		t.Errorf("existing file resized to %d", f.Size())
	}
	f, ok := fs.Lookup("miss")
	if !ok || f.Size() != 4096 {
		t.Fatalf("missing file not created at size 4096: %v, %v", ok, f)
	}
	if _, ok := fs.Lookup("never-read"); !ok {
		t.Error("opened-but-never-read file not created")
	}
	// Deterministic content: a second population of a fresh FS matches.
	fs2 := fsim.New(8192)
	if err := PopulateFS(fs2, tr); err != nil {
		t.Fatal(err)
	}
	f2, _ := fs2.Lookup("miss")
	got, again := make([]byte, f.Size()), make([]byte, f2.Size())
	f.ReadAt(got, 0)
	f2.ReadAt(again, 0)
	if !bytes.Equal(got, again) {
		t.Error("PopulateFS content is not deterministic")
	}
}

// TestParseRecordCap: the record limit surfaces with the right line.
func TestParseRecordCap(t *testing.T) {
	var b strings.Builder
	b.WriteString("open a\n")
	for i := 0; i < MaxRecords; i++ {
		b.WriteString("think 1\n")
	}
	_, err := Parse(b.String())
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("record cap not enforced: %v", err)
	}
	if pe.Line != MaxRecords+1 {
		t.Errorf("cap error at line %d, want %d", pe.Line, MaxRecords+1)
	}
}
