package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tipbench is the binary under test, built once in TestMain: exit codes
// need a real process (`go run` collapses every nonzero status to 1).
var tipbench string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tipbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tipbench = filepath.Join(dir, "tipbench")
	if out, err := exec.Command("go", "build", "-o", tipbench, ".").CombinedOutput(); err != nil {
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
	cmd := exec.Command(tipbench, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("tipbench %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// TestUsageErrors: every malformed command line is exit 2 with a one-line
// diagnosis, decided before any simulation starts (nothing on stdout, no
// -json file written) — including every flag this CLI used to have.
func TestUsageErrors(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "out.json")
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	cases := []struct {
		name string
		args []string
		want string // prefix of the first stderr line
	}{
		{"unknown experiment", []string{"-exp", "fig3,nosuch", "-scale", "test"}, `tipbench: unknown experiment "nosuch" (have adaptive, cluster,`},
		{"unknown scale", []string{"-exp", "fig3", "-scale", "huge"}, `tipbench: unknown scale "huge"`},
		{"parallel 0", []string{"-exp", "fig3", "-scale", "test", "-parallel", "0"}, "tipbench: -parallel must be >= 1, got 0"},
		{"json with a text-only experiment", []string{"-exp", "fig3", "-scale", "test", "-json", jsonPath}, "tipbench: -json needs -exp to name exactly one of cluster, faults, multi, overload, replay, got"},
		{"json with two experiments", []string{"-exp", "multi,faults", "-scale", "test", "-json", jsonPath}, "tipbench: -json needs -exp to name exactly one of"},
		{"experiment named twice", []string{"-exp", "fig3,fig3", "-scale", "test"}, `tipbench: experiment "fig3" named twice in -exp`},
		{"unknown trace app", []string{"-exp", "fig3", "-scale", "test", "-trace-json", tracePath, "-trace-app", "bogus"},
			`tipbench: -trace-app: unknown app "bogus" (want agrep, gnuld, xds, postgres, lsm or mlshard)`},
		{"deleted -cluster", []string{"-cluster", "-scale", "test"}, "flag provided but not defined: -cluster"},
		{"deleted -speed", []string{"-speed", "-scale", "test"}, "flag provided but not defined: -speed"},
		{"deleted -replay", []string{"-replay", "-scale", "test"}, "flag provided but not defined: -replay"},
		{"deleted -overload", []string{"-overload", "-scale", "test"}, "flag provided but not defined: -overload"},
		{"deleted -shed", []string{"-exp", "overload", "-scale", "test", "-shed", "on"}, "flag provided but not defined: -shed"},
		{"deleted -kill-shard", []string{"-exp", "overload", "-scale", "test", "-kill-shard", "0"}, "flag provided but not defined: -kill-shard"},
		{"deleted -multimax", []string{"-exp", "multi", "-scale", "test", "-multimax", "2"}, "flag provided but not defined: -multimax"},
		{"deleted -cluster-shards", []string{"-exp", "cluster", "-scale", "test", "-cluster-shards", "1,2"}, "flag provided but not defined: -cluster-shards"},
		{"deleted -check-tol", []string{"-exp", "multi", "-scale", "test", "-check-tol", "5"}, "flag provided but not defined: -check-tol"},
		{"deleted -check", []string{"-check", "x.json"}, "flag provided but not defined: -check"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := run(t, c.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if first, _, _ := strings.Cut(stderr, "\n"); !strings.HasPrefix(first, c.want) {
				t.Errorf("stderr starts %q, want prefix %q", first, c.want)
			}
			if stdout != "" {
				t.Errorf("usage error still ran something:\n%s", stdout)
			}
			for _, path := range []string{jsonPath, tracePath} {
				if _, err := os.Stat(path); err == nil {
					t.Errorf("usage error still wrote %s", path)
				}
			}
		})
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write host pprof files beside
// an unchanged table; a path that cannot be created, for a profile or for
// -json or -trace-json, is exit 1 before any simulation starts.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, profiled, stderr := run(t, "-exp", "fig3", "-scale", "test", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}
	if _, plain, _ := run(t, "-exp", "fig3", "-scale", "test"); simulated(plain) != simulated(profiled) {
		t.Errorf("profiling changed the table:\n%s\nvs\n%s", simulated(profiled), simulated(plain))
	}

	for _, flag := range []string{"-cpuprofile", "-memprofile", "-json", "-trace-json"} {
		code, stdout, stderr := run(t, "-exp", "multi", "-scale", "test", flag, filepath.Join(dir, "missing", "x.out"))
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "tipbench: open ") {
			t.Errorf("%s to an uncreatable path: exit %d, stdout %q, stderr %q; want exit 1 before any run", flag, code, stdout, stderr)
		}
	}
}

func TestListStable(t *testing.T) {
	code, first, _ := run(t, "-list")
	if code != 0 || !strings.Contains(first, "fig3") {
		t.Fatalf("-list: exit %d, output:\n%s", code, first)
	}
	if _, second, _ := run(t, "-list"); first != second {
		t.Errorf("-list differs between two runs:\n%s\nvs\n%s", first, second)
	}
}

// simulated strips what legitimately differs between two runs of the same
// command line: the wall-clock footers and the "wrote FILE" notices.
func simulated(stdout string) string {
	var keep []string
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "(") && !strings.HasPrefix(line, "wrote ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// runJSON runs one family at test scale with -json and returns the
// simulated stdout and the file's bytes.
func runJSON(t *testing.T, family string) (stdout string, file []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), family+".json")
	code, stdout, stderr := run(t, "-exp", family, "-scale", "test", "-json", path)
	if code != 0 {
		t.Fatalf("-exp %s -json: exit %d\n%s", family, code, stderr)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return simulated(stdout), file
}

// TestJSONMatchesGolden: -exp F -json writes the same bytes the committed
// canon holds, for every sweep family with a test-scale golden.
func TestJSONMatchesGolden(t *testing.T) {
	for _, family := range []string{"multi", "faults", "overload", "replay", "cluster"} {
		t.Run(family, func(t *testing.T) {
			_, got := runJSON(t, family)
			want, err := os.ReadFile(filepath.Join("..", "..", "bench", "golden", family+"_small.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-exp %s -scale test -json differs from bench/golden/%s_small.json (%d vs %d bytes)",
					family, family, len(got), len(want))
			}
		})
	}
}

// TestJSONOneSweep: -json is rendered from the same sweep as the table —
// deterministic across runs, and asking for it does not change the table.
func TestJSONOneSweep(t *testing.T) {
	table1, json1 := runJSON(t, "multi")
	table2, json2 := runJSON(t, "multi")
	if !bytes.Equal(json1, json2) {
		t.Error("-exp multi -json differs between two runs")
	}
	if table1 != table2 {
		t.Errorf("-exp multi table differs between two runs:\n%s\nvs\n%s", table1, table2)
	}
	code, plain, stderr := run(t, "-exp", "multi", "-scale", "test")
	if code != 0 {
		t.Fatalf("-exp multi: exit %d\n%s", code, stderr)
	}
	if simulated(plain) != table1 {
		t.Errorf("-json changed the stdout table:\n%s\nvs\n%s", simulated(plain), table1)
	}
}
