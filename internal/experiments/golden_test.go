package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the current drivers")

// TestTablesGolden renders every registered driver in ID order and
// compares the bytes with testdata/tables.golden. Every driver runs on
// the deterministic simulator, so any difference is a behaviour change
// in the code the experiments exercise. Regenerate deliberately with
//
//	go test ./internal/experiments -run TestTablesGolden -update
func TestTablesGolden(t *testing.T) {
	drivers, ids := All()
	var got bytes.Buffer
	for _, id := range ids {
		drivers[id]().Render(&got)
	}
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
