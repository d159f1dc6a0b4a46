package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runMainArg, as the first argument of the test binary, makes it run
// paperrepro's main with the remaining arguments instead of the tests.
const runMainArg = "paperrepro-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestQuickSeed11Golden pins the whole quick-scale report byte for byte:
// every table and figure the command prints at -scale quick -seed 11
// must match testdata/quick_seed11.txt. The command runs in a re-exec of
// this test binary, so its printers write to a real stdout.
func TestQuickSeed11Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_seed11.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], runMainArg, "-scale", "quick", "-seed", "11")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("paperrepro: %v\n%s", err, stderr.Bytes())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from golden at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
	}
}
