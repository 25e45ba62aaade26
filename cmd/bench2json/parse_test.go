package main

import "testing"

const sample = `goos: linux
goarch: amd64
pkg: parallax
cpu: AMD EPYC 7B13
BenchmarkTrainerStep/fused-8         	       1	  20724340 ns/op
PASS
ok  	parallax	0.296s
goos: linux
goarch: amd64
pkg: parallax/internal/transport
BenchmarkCodecRoundTrip/dense64k-8   	     100	    118519 ns/op	2211.85 MB/s	      13 B/op	       0 allocs/op
BenchmarkCodecRoundTrip/topk10pct_64k-8 	     100	    116374 ns/op	2252.62 MB/s	      44 B/op	       1 allocs/op
PASS
`

func TestParse(t *testing.T) {
	doc, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Fatalf("context = %q %q %q", doc.GOOS, doc.GOARCH, doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "BenchmarkTrainerStep/fused" || b0.Procs != 8 ||
		b0.Pkg != "parallax" || b0.Iterations != 1 || b0.NsPerOp != 20724340 {
		t.Fatalf("first result: %+v", b0)
	}
	b2 := doc.Benchmarks[2]
	if b2.Name != "BenchmarkCodecRoundTrip/topk10pct_64k" ||
		b2.Pkg != "parallax/internal/transport" ||
		b2.MBPerS != 2252.62 || b2.BytesPerOp != 44 || b2.AllocsPerOp != 1 {
		t.Fatalf("compressed result: %+v", b2)
	}
}

func TestParseRejectsEmptyAndMalformed(t *testing.T) {
	if _, err := Parse("PASS\nok parallax 0.1s\n"); err == nil {
		t.Fatal("benchmark-free input accepted")
	}
	if _, err := Parse("BenchmarkX-8 notanumber 5 ns/op\n"); err == nil {
		t.Fatal("malformed iteration count accepted")
	}
	if _, err := Parse("BenchmarkX-8 1 bad ns/op\n"); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func TestParseCustomUnits(t *testing.T) {
	doc, err := Parse("BenchmarkY 7 12.5 ns/op 3.25 rounds/op\n")
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkY" || b.Procs != 0 || b.Extra["rounds/op"] != 3.25 {
		t.Fatalf("custom-unit result: %+v", b)
	}
}
