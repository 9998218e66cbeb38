package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenOptions is the configuration the experiments golden is recorded
// at. Scale 0.4 makes E1 grow 1,200-node FKP trees on the attachment
// index.
var goldenOptions = Options{Seed: 42, Scale: 0.4, Reps: 2}

// TestAllTablesGolden pins every experiment's table, byte for byte, to
// testdata/all.golden. An intended output change is recorded by copying
// the new output over the golden.
func TestAllTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, r := range All() {
		tbl, err := r.Run(goldenOptions)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		b.WriteString(tbl.Format())
		b.WriteString("\n")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("experiment tables differ from testdata/all.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
