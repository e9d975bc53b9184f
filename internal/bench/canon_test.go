package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// paperDir holds the paper canon: one file per registry experiment, exactly
// its full-scale report text (`make paper` regenerates it).
const paperDir = "../../bench/paper"

// experimentsDoc is the document that quotes the canon.
const experimentsDoc = "../../EXPERIMENTS.md"

// canonFence matches one quote of a canon file in EXPERIMENTS.md: the name in
// the opening comment, the file's bytes in a text code block.
var canonFence = regexp.MustCompile("(?s)<!-- canon ([a-z0-9]+) -->\n```text\n(.*?)```\n<!-- /canon -->")

// TestPaperCanon holds EXPERIMENTS.md to the paper canon: every fence is
// byte-equal to the file it names, every registry experiment has a canon file
// and every canon file is quoted, so no measured table in the document is
// typed by hand. Under -update it rewrites the fences from the files.
func TestPaperCanon(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	canon := map[string]string{}
	files, err := filepath.Glob(filepath.Join(paperDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".txt")
		if _, ok := Registry[name]; !ok {
			t.Errorf("%s: no registry experiment %q (regenerate with make paper)", f, name)
		}
		canon[name] = string(body)
	}
	for _, name := range Names() {
		if _, ok := canon[name]; !ok {
			t.Errorf("experiment %q has no canon file %s/%s.txt (regenerate with make paper)", name, paperDir, name)
		}
	}

	text := string(doc)
	if opens, fences := strings.Count(text, "<!-- canon "), len(canonFence.FindAllString(text, -1)); opens != fences {
		t.Fatalf("EXPERIMENTS.md opens %d canon fences but %d are well formed", opens, fences)
	}
	quoted := map[string]bool{}
	updated := canonFence.ReplaceAllStringFunc(text, func(fence string) string {
		m := canonFence.FindStringSubmatch(fence)
		name, body := m[1], m[2]
		quoted[name] = true
		want, ok := canon[name]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md quotes %q, which has no canon file", name)
		case *updateGolden:
			return "<!-- canon " + name + " -->\n```text\n" + want + "```\n<!-- /canon -->"
		case body != want:
			t.Errorf("EXPERIMENTS.md's fence for %q differs from %s/%s.txt at byte %d "+
				"(go test ./internal/bench -run PaperCanon -update rewrites the fences)",
				name, paperDir, name, firstDiff([]byte(body), []byte(want)))
		}
		return fence
	})
	for name := range canon {
		if !quoted[name] {
			t.Errorf("%s/%s.txt is quoted nowhere in EXPERIMENTS.md", paperDir, name)
		}
	}
	if *updateGolden && updated != text {
		if err := os.WriteFile(experimentsDoc, []byte(updated), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
