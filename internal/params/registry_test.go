package params

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/errs"
)

// comp is a minimal Component: a name and a spec list.
type comp struct {
	name  string
	specs []Spec
}

func (c comp) Name() string   { return c.name }
func (c comp) Params() []Spec { return append([]Spec(nil), c.specs...) }

func testRegistry(t *testing.T) *Registry[comp] {
	t.Helper()
	r := NewRegistry[comp]("testreg", "widget", map[string]string{"": "beta", "old-alpha": "alpha"}, nil)
	for _, c := range []comp{{name: "beta"}, {name: "alpha", specs: specs()}} {
		if err := r.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRegistryRejectsDuplicateAndEmptyNames(t *testing.T) {
	r := testRegistry(t)
	if err := r.Register(comp{name: "alpha"}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("duplicate gave %v, want ErrBadParam", err)
	}
	if err := r.Register(comp{}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("empty name gave %v, want ErrBadParam", err)
	}
	if got := r.Names(); strings.Join(got, ",") != "alpha,beta" {
		t.Fatalf("Names() = %v after rejected registrations, want [alpha beta]", got)
	}
}

func TestRegistryAliasesAndCanonical(t *testing.T) {
	r := testRegistry(t)
	for alias, want := range map[string]string{"": "beta", "old-alpha": "alpha", "alpha": "alpha", "nope": "nope"} {
		if got := r.Canonical(alias); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", alias, got, want)
		}
	}
	for _, name := range []string{"", "old-alpha"} {
		c, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != r.Canonical(name) {
			t.Errorf("Lookup(%q) found %q", name, c.Name())
		}
	}
	// ParseSelections dedups an alias against its canonical spelling and
	// routes an assignment through either one.
	if _, err := r.ParseSelections("alpha,old-alpha", nil); !errors.Is(err, errs.ErrBadParam) {
		t.Errorf("alias+canonical duplicate gave %v, want ErrBadParam", err)
	}
	set, err := r.ParseSelections("old-alpha", []string{"alpha.n=3"})
	if err != nil || set[0].Params["n"] != 3 {
		t.Fatalf("cross-spelling assignment: set %+v, err %v", set, err)
	}
}

func TestRegistryUnknownNameListsRegistered(t *testing.T) {
	r := testRegistry(t)
	_, err := r.Lookup("gamma")
	if !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown name gave %v, want ErrBadParam", err)
	}
	for _, want := range []string{"testreg", "unknown widget", `"gamma"`, "[alpha beta]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, _, err := r.Resolve(Selection{Name: "gamma"}); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("Resolve of an unknown name gave %v, want ErrBadParam", err)
	}
}

func TestRegistryResolve(t *testing.T) {
	r := testRegistry(t)
	c, p, err := r.Resolve(Selection{Name: "old-alpha", Params: Params{"n": 7}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "alpha" || p.Int("n") != 7 || p.Float("alpha") != 0.5 || len(p) != 2 {
		t.Fatalf("resolved %q %v, want alpha with n=7 and the alpha default", c.Name(), p)
	}
	for _, bad := range []Params{{"bogus": 1}, {"n": 11}, {"n": 2.5}} {
		_, _, err := r.Resolve(Selection{Name: "alpha", Params: bad})
		if !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("Resolve(alpha, %v) gave %v, want ErrBadParam", bad, err)
		} else if !strings.Contains(err.Error(), `testreg: widget "alpha"`) {
			t.Errorf("error %q does not name the widget", err)
		}
	}
}

func TestRegistryFormat(t *testing.T) {
	r := NewRegistry[comp]("testreg", "widget", nil, func(c comp) string { return "[" + c.name + "]" })
	if err := r.Register(comp{name: "w", specs: specs()}); err != nil {
		t.Fatal(err)
	}
	for qualify, want := range map[bool]string{
		true:  "w  [w]\n  -p w.alpha=<float>  (default 0.5)  \n  -p w.n=<int>  (default 5)  \n",
		false: "w  [w]\n  -p alpha=<float>  (default 0.5)  \n  -p n=<int>  (default 5)  \n",
	} {
		var b strings.Builder
		r.Format(&b, "-p ", qualify)
		if b.String() != want {
			t.Errorf("Format(qualify=%v) = %q, want %q", qualify, b.String(), want)
		}
	}
}

// TestRegistryConcurrentAccess registers components while other
// goroutines look up, list and resolve; run it under -race.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := testRegistry(t)
	const writers, readers, per = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := r.Register(comp{name: fmt.Sprintf("c%d-%d", w, i), specs: specs()}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := r.Lookup("alpha"); err != nil {
					t.Error(err)
				}
				if n := len(r.Names()); n < 2 {
					t.Errorf("Names() lists %d components, want at least 2", n)
				}
				if _, p, err := r.Resolve(Selection{Name: "alpha", Params: Params{"n": 3}}); err != nil || p.Int("n") != 3 {
					t.Errorf("Resolve: %v %v", p, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(r.Names()); n != 2+writers*per {
		t.Fatalf("registry holds %d components, want %d", n, 2+writers*per)
	}
}
