package table

import (
	"strings"
	"testing"
)

func TestWrite(t *testing.T) {
	var b strings.Builder
	err := Write(&b, []string{"name", "v"}, [][]string{{"a", "1.5"}, {"long-name", "2"}, {"short"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "name       v  \n" +
		"---------  ---\n" +
		"a          1.5\n" +
		"long-name  2  \n" +
		"short    \n"
	if b.String() != want {
		t.Fatalf("got\n%q\nwant\n%q", b.String(), want)
	}
}
