package prog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse: Parse reads .litmus files from disk. It must never panic,
// every program it accepts must pass Validate, and it must be
// deterministic — parsing the same source twice gives equal programs.
// (Program.String is a listing, not parse syntax, so there is no
// print/parse round trip to assert.) Seeded from testdata/*.litmus.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.litmus")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed corpus in testdata (glob: %v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse returned a program with error %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted a program Validate rejects: %v", err)
		}
		q, err := Parse(src)
		if err != nil || !reflect.DeepEqual(p, q) {
			t.Fatalf("second Parse of the same source differs (err %v):\n%v\nvs\n%v", err, p, q)
		}
	})
}
