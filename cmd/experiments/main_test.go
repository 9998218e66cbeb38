package main

import (
	"strings"
	"testing"
)

func TestSelectRunners(t *testing.T) {
	if _, err := selectRunners("E2,E12"); err == nil || !strings.Contains(err.Error(), "E12") || !strings.Contains(err.Error(), "E1,E2,E3") {
		t.Fatalf("unknown id gave %v, want an error naming E12 and the valid ids", err)
	}
	got, err := selectRunners("e2, E3")
	if err != nil || len(got) != 2 || got[0].ID != "E2" || got[1].ID != "E3" {
		t.Fatalf(`selectRunners("e2, E3") = %v, %v; want E2 then E3`, got, err)
	}
	all, err := selectRunners("")
	if err != nil || len(all) != 11 {
		t.Fatalf(`selectRunners("") gave %d runners, %v; want all 11`, len(all), err)
	}
}
