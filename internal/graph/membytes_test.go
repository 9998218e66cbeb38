package graph

import (
	"runtime"
	"testing"
)

func TestCSRMemBytesExact(t *testing.T) {
	for _, n := range []int{2, 10, 100} {
		c := pathGraph(n).Freeze()
		m := int64(n - 1)
		// rowStart: 4(n+1); nbr+edgeID+bfsNbr: 3 * 4 * 2m; weight: 8 * 2m.
		want := 4*int64(n+1) + 40*m
		if got := c.MemBytes(); got != want {
			t.Errorf("n=%d: CSR.MemBytes = %d, want %d", n, got, want)
		}
	}
}

// TestCSRMemBytesMeasured is the regression test keeping the estimator
// honest against the allocator: freezing a large snapshot must grow the
// heap by about what MemBytes claims. Size-class rounding and incidental
// runtime allocation make exact equality impossible, so the check is a
// band.
func TestCSRMemBytesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement is slow and GC-sensitive")
	}
	g := pathGraph(200000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := g.Freeze()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g) // only the snapshot may show up in the delta
	grown, claimed := int64(after.HeapAlloc)-int64(before.HeapAlloc), c.MemBytes()
	if grown < claimed*8/10 || grown > claimed*12/10 {
		t.Errorf("heap grew %d B for a snapshot claiming %d B (outside ±20%%)", grown, claimed)
	}
}

func TestGraphMemBytesGrows(t *testing.T) {
	small, big := pathGraph(10), pathGraph(1000)
	sb, bb := small.MemBytes(), big.MemBytes()
	if sb <= 0 {
		t.Fatalf("small graph MemBytes = %d, want > 0", sb)
	}
	if bb <= sb {
		t.Fatalf("1000-node graph (%d B) not larger than 10-node graph (%d B)", bb, sb)
	}
	// Labels are charged too.
	labeled := pathGraph(10)
	labeled.Node(0).Label = "a-rather-long-node-label"
	if labeled.MemBytes() <= sb {
		t.Fatal("label bytes not charged")
	}
}
