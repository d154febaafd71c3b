package refkernel

import (
	"go/parser"
	"go/token"
	"testing"
)

func TestRunReturnsFixedChecksum(t *testing.T) {
	for i := 0; i < 3; i++ {
		if got := Run(); got != Checksum {
			t.Fatalf("Run() = %#x, want %#x", got, Checksum)
		}
	}
}

func TestRunAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { Run() }); n != 0 {
		t.Fatalf("Run allocates %v times per call, want 0", n)
	}
}

// TestImportsNothing keeps the kernel independent of the program it
// measures: nothing from flm (or anywhere else) can slow it.
func TestImportsNothing(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "refkernel.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		t.Errorf("refkernel imports %s", imp.Path.Value)
	}
}
