package trace

import (
	"strings"
	"testing"

	"spechint/internal/analysis"
	"spechint/internal/asm"
	"spechint/internal/spechint"
)

// testTrace is a small mixed-pattern trace shared by the compile tests.
func testTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Parse(strings.Join([]string{
		"open data/a.bin",
		"read 0 8192",
		"think 5000",
		"read 16384 4096",
		"close",
		"open data/b.bin",
		"read 4096 100",
		"close",
		"open data/a.bin",
		"read 8192 8192",
		"close",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCompileAssembles: both program variants assemble, the original
// transforms, and the transformed binary is speclint-clean — replay
// programs are ordinary programs to the whole toolchain.
func TestCompileAssembles(t *testing.T) {
	tr := testTrace(t)
	for _, manual := range []bool{false, true} {
		src := Source(tr, manual)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("manual=%v: %v\n%s", manual, err, src)
		}
		if prog.ShadowBase != 0 {
			t.Fatalf("manual=%v: fresh program claims a shadow segment", manual)
		}
	}
	orig, err := asm.Assemble(Source(tr, false))
	if err != nil {
		t.Fatal(err)
	}
	opt := spechint.DefaultOptions()
	transformed, _, err := spechint.Transform(orig, opt)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if findings := analysis.Lint(transformed, opt); len(findings) != 0 {
		t.Fatalf("speclint findings on replay program: %v", findings)
	}
}

// TestCompileClassifies: the static synthesizer walks a replay program
// without error and classifies its read site.
func TestCompileClassifies(t *testing.T) {
	orig, err := asm.Assemble(Source(testTrace(t), false))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Synthesize(orig)
	if err != nil {
		t.Fatalf("replay program does not classify cleanly: %v", err)
	}
	if len(rep.Sites) == 0 {
		t.Fatal("synthesizer found no read sites in the replay interpreter")
	}
	for _, s := range rep.Sites {
		if s.Class.String() == "class?" {
			t.Errorf("site pc %d has no access class", s.PC)
		}
	}
}

// TestCompileEmptyTrace: the degenerate empty trace still compiles to a
// valid program (it just exits).
func TestCompileEmptyTrace(t *testing.T) {
	if _, err := asm.Assemble(Source(&Trace{}, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Assemble(Source(&Trace{}, true)); err != nil {
		t.Fatal(err)
	}
}

// TestCompileManualHintsEveryRead: the oracle prelude contains one hintfile
// site and the data table one record per trace record plus the terminator.
func TestCompileManualHintsEveryRead(t *testing.T) {
	tr := testTrace(t)
	src := Source(tr, true)
	if !strings.Contains(src, "syscall hintfile") {
		t.Fatal("manual variant has no hintfile call")
	}
	if strings.Contains(Source(tr, false), "hintfile") {
		t.Fatal("original variant must not hint")
	}
}
