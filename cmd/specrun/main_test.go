package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spechint/internal/obs"
	"spechint/internal/sim"
)

// specrun is the binary under test, built once in TestMain: exit codes need
// a real process (`go run` collapses every nonzero status to 1).
var specrun string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "specrun-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	specrun = filepath.Join(dir, "specrun")
	if out, err := exec.Command("go", "build", "-o", specrun, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns its exit code and both streams.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(specrun, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("specrun %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// sumSrc reads data/part0..2 end to end, prints the byte sum and exits with
// the given status.
func sumSrc(exit int) string {
	return fmt.Sprintf(`
.data
buf:    .space 4096
nfiles: .word 3
files:  .word f0, f1, f2
f0: .asciz "data/part0"
f1: .asciz "data/part1"
f2: .asciz "data/part2"
.text
main:
    ldw  r20, nfiles
    movi r21, files
next:
    beq  r20, r0, done
    ldw  r1, (r21)
    syscall open
    mov  r10, r1
loop:
    mov  r1, r10
    movi r2, buf
    movi r3, 4096
    syscall read
    beq  r1, r0, eof
    movi r4, buf
    add  r5, r4, r1
sum:
    ldb  r6, (r4)
    add  r22, r22, r6
    addi r4, r4, 1
    blt  r4, r5, sum
    jmp  loop
eof:
    mov  r1, r10
    syscall close
    addi r21, r21, 8
    addi r20, r20, -1
    jmp  next
done:
    mov  r1, r22
    syscall printint
    movi r1, %d
    syscall exit
`, exit)
}

// spinSrc never reads and never exits: only the deadline ends it.
const spinSrc = `
.text
main:
    addi r1, r1, 1
    jmp  main
`

// fixture lays out the inputs and programs under one temp directory.
func fixture(t *testing.T) (dir string, file func(name, content string) string) {
	t.Helper()
	dir = t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	file = func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for i := 0; i < 10; i++ { // sumSrc reads the first three, seqsum.s all ten
		file(fmt.Sprintf("data/part%d", i), strings.Repeat("spechint", 3000+500*i))
	}
	return dir, file
}

// TestExitCodes pins the documented exit-code table, one row per code.
func TestExitCodes(t *testing.T) {
	dir, file := fixture(t)
	ok := file("ok.s", sumSrc(0))
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring
	}{
		{"0: program exits 0", []string{"-file", ok, "-dir", dir}, 0, "exit 0 in "},
		{"0: profiled run", []string{"-file", ok, "-dir", dir, "-cpuprofile", filepath.Join(dir, "cpu.prof"), "-memprofile", filepath.Join(dir, "mem.prof")}, 0, "exit 0 in "},
		{"1: profile path cannot be created", []string{"-file", ok, "-dir", dir, "-memprofile", filepath.Join(dir, "missing", "mem.prof")}, 1, "specrun: open "},
		{"1: malformed trace", []string{"-trace-file", file("bad.trace", "open data/part0\nread 0 4096\nreed 4096 4096\nclose\n")}, 1, "trace: line 3:"},
		{"1: bad assembly", []string{"-file", file("bad.s", ".text\nmain:\n    frobnicate r1\n")}, 1, "specrun: "},
		{"1: fault key no solo run installs", []string{"-file", ok, "-dir", dir, "-faults", "dieshard=0@1e9"}, 1, "specrun: fault: dieshard acts on a cluster shard"},
		{"2: -file and -trace-file", []string{"-file", ok, "-trace-file", ok}, 2, "exactly one of -file or -trace-file"},
		{"2: neither", nil, 2, "exactly one of -file or -trace-file"},
		{"2: unknown mode", []string{"-file", ok, "-mode", "bogus"}, 2, `unknown mode "bogus"`},
		{"3: deadline under I/O", []string{"-file", ok, "-dir", dir, "-deadline", "100000"}, 3, "deadline exceeded: the program did not finish within 100000 virtual cycles"},
		{"3: deadline under pure compute", []string{"-file", file("spin.s", spinSrc), "-deadline", "5000000"}, 3, "deadline exceeded"},
		{"4: program exits nonzero", []string{"-file", file("seven.s", sumSrc(7)), "-dir", dir}, 4, "exit 7 in "},
		// seqsum.s with none of its inputs: it must end on the failed open,
		// not spin until the deadline.
		{"4: seqsum.s with its inputs missing", []string{"-file", "../../examples/progs/seqsum.s", "-dir", t.TempDir(), "-deadline", "100000000"}, 4, "exit 1 in "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := run(t, c.args...)
			if code != c.code {
				t.Errorf("exit %d, want %d\n%s", code, c.code, stderr)
			}
			if !strings.Contains(stderr, c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, stderr)
			}
		})
	}
	for _, name := range []string{"cpu.prof", "mem.prof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("the profiled run left %s missing or empty (%v)", name, err)
		}
	}
}

// TestModesAgreeOnOutput: speculation, on the stalled CPU or on a second
// processor, changes when the program finishes and never what it prints.
func TestModesAgreeOnOutput(t *testing.T) {
	dir, file := fixture(t)
	ok := file("ok.s", sumSrc(0))
	code, want, stderr := run(t, "-file", ok, "-dir", dir)
	if code != 0 || strings.TrimSpace(want) == "" {
		t.Fatalf("original run: exit %d, stdout %q\n%s", code, want, stderr)
	}
	for _, extra := range [][]string{{"-mode", "spec"}, {"-mode", "spec", "-dual"}} {
		code, got, stderr := run(t, append([]string{"-file", ok, "-dir", dir}, extra...)...)
		if code != 0 || got != want {
			t.Errorf("%v: exit %d, stdout %q, want %q\n%s", extra, code, got, want, stderr)
		}
		if !strings.Contains(stderr, "hinted") || strings.Contains(stderr, "(0 hinted)") {
			t.Errorf("%v: the run did not speculate:\n%s", extra, stderr)
		}
	}
}

// traceRows returns the `cycle  event  detail` rows of a -trace timeline on
// stderr: everything after the header row, minus the elision line.
func traceRows(t *testing.T, stderr string) []string {
	t.Helper()
	_, body, ok := strings.Cut(stderr, fmt.Sprintf("%12s  %-10s %s\n", "cycle", "event", "detail"))
	if !ok {
		t.Fatalf("no timeline header row:\n%s", stderr)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "    ...") {
			rows = append(rows, line)
		}
	}
	return rows
}

// hasEvent reports whether some row's event column is name.
func hasEvent(rows []string, name string) bool {
	for _, r := range rows {
		if f := strings.Fields(r); len(f) > 1 && f[1] == name {
			return true
		}
	}
	return false
}

// TestTraceIsAViewOfTheCrossLayerTrace: -trace N prints the core events of the
// one obs.Trace the run records — head and tail around an elision line, no
// dropped trailer on a run that fits the recorder — and with -trace-json in
// the same invocation both outputs come from that one recording.
func TestTraceIsAViewOfTheCrossLayerTrace(t *testing.T) {
	dir, _ := fixture(t)
	args := []string{"-file", "../../examples/progs/seqsum.s", "-dir", dir, "-mode", "spec", "-deadline", "2000000000"}

	code, _, stderr := run(t, append(args, "-trace", "6")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if rows := traceRows(t, stderr); len(rows) != 6 || !hasEvent(rows, "read") || !hasEvent(rows, "restart") {
		t.Errorf("want 6 rows with a read and a restart, got:\n%s", strings.Join(rows, "\n"))
	}
	if !strings.Contains(stderr, " events elided ...") || strings.Contains(stderr, "dropped") {
		t.Errorf("want an elision line and no dropped trailer:\n%s", stderr)
	}

	// A wider window reaches the hints, and the same run's JSON export holds
	// every printed row, in order.
	jsonPath := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr = run(t, append(args, "-trace", "40", "-trace-json", jsonPath)...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	rows := traceRows(t, stderr)
	if len(rows) != 40 || !hasEvent(rows, "hint") {
		t.Errorf("want 40 rows with a hint, got:\n%s", strings.Join(rows, "\n"))
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []struct {
			Name, Cat string
			Args      struct {
				Detail string
				Cycle  int64
			}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, e := range doc.Events {
		if next < len(rows) && e.Cat == "core" &&
			rows[next] == fmt.Sprintf("%12d  %-10s %s", e.Args.Cycle, e.Name, e.Args.Detail) {
			next++
		}
	}
	if next != len(rows) {
		t.Errorf("timeline row %d is not in %s (or out of order): %q", next, jsonPath, rows[next])
	}
}

// TestTraceFormatEdges pins formatTrace's eliding arithmetic: limit >= len renders
// everything, an odd limit splits head and tail correctly, and a nonzero
// dropped count always surfaces as a trailer.
func TestTraceFormatEdges(t *testing.T) {
	var events []obs.Event
	for i := 0; i < 10; i++ {
		events = append(events, obs.Event{At: sim.Time(i), Cat: "core", Name: "read", Detail: fmt.Sprintf("ev%d", i)})
	}
	// The header row contains the word "event"; count rendered entries by
	// their unambiguous "read  ev<N>" rendering instead.
	count := func(s string) int { return strings.Count(s, "read       ev") }

	if out := formatTrace(events, 10, 0); count(out) != 10 || strings.Contains(out, "elided") {
		t.Fatalf("limit == len should render all 10 events:\n%s", out)
	}
	if out := formatTrace(events, 99, 0); count(out) != 10 || strings.Contains(out, "elided") || strings.Contains(out, "dropped") {
		t.Fatalf("limit > len should render all 10 events and no trailer:\n%s", out)
	}

	out := formatTrace(events, 5, 0)
	if count(out) != 5 || !strings.Contains(out, "5 events elided") {
		t.Fatalf("limit 5 of 10:\n%s", out)
	}
	// head = 2, tail = 3: first two and last three events.
	for _, want := range []string{"ev0", "ev1", "ev7", "ev8", "ev9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("limit 5 missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ev2") || strings.Contains(out, "ev6") {
		t.Fatalf("limit 5 rendered an elided event:\n%s", out)
	}

	if out := formatTrace(events, 5, 7); !strings.Contains(out, "7 later events dropped") {
		t.Fatalf("dropped trailer missing:\n%s", out)
	}
	if out := formatTrace(nil, 1, 3); !strings.Contains(out, "3 later events dropped") {
		t.Fatalf("dropped trailer must render even with no events:\n%s", out)
	}
}
