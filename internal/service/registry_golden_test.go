package service

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// TestRegistryGolden pins the GET /v1/registry body byte for byte: every
// registered model, metric, attack and demand model with its parameter
// specs, in the order and JSON layout clients read. An intended change
// to a registration is recorded by copying the new body over
// testdata/registry.golden.json.
func TestRegistryGolden(t *testing.T) {
	_, c := newTestServer(t, Config{Executors: -1})
	resp, err := http.Get(c.base + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/registry: %d %s", resp.StatusCode, got)
	}
	path := filepath.Join("testdata", "registry.golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("GET /v1/registry differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
