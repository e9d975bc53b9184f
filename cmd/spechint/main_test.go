package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/spechint"
)

// Two invocations of the transform report on the same program must produce
// byte-identical stdout: the only run-varying line (wall-clock timing) goes
// to stderr, so scripts can diff or checksum the report.
func TestReportTransformStdoutDeterministic(t *testing.T) {
	bundle, err := apps.Build(apps.Agrep, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	opt := spechint.DefaultOptions()

	runOnce := func() (stdout, stderr string) {
		var out, errw bytes.Buffer
		if err := reportTransform(&out, &errw, bundle.Original, opt, false); err != nil {
			t.Fatal(err)
		}
		return out.String(), errw.String()
	}

	out1, err1 := runOnce()
	out2, _ := runOnce()
	if out1 != out2 {
		t.Fatalf("stdout differs between runs:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
	if strings.Contains(out1, "transformed in") {
		t.Fatalf("timing line leaked onto stdout:\n%s", out1)
	}
	if !strings.Contains(err1, "transformed in") {
		t.Fatalf("timing line missing from stderr:\n%s", err1)
	}
	if !strings.Contains(out1, "hint sites:") {
		t.Fatalf("report missing statistics:\n%s", out1)
	}
}

// TestDeletedFlags: every flag this CLI used to have is exit 2 with a
// one-line diagnosis and nothing on stdout. Exit codes need a built binary:
// `go run` collapses every nonzero status to 1.
func TestDeletedFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "spechint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string // prefix of the first stderr line
	}{
		{"deleted -analyze", []string{"-app", "xds", "-analyze"}, "flag provided but not defined: -analyze"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			cmd := exec.Command(bin, c.args...)
			cmd.Stdout, cmd.Stderr = &out, &errb
			var exit *exec.ExitError
			if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
				t.Fatal(err)
			}
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if first, _, _ := strings.Cut(errb.String(), "\n"); !strings.HasPrefix(first, c.want) {
				t.Errorf("stderr starts %q, want prefix %q", first, c.want)
			}
			if out.Len() != 0 {
				t.Errorf("usage error still ran something:\n%s", out.String())
			}
		})
	}
}
