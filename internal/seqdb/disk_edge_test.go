package seqdb

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/pattern"
)

// scanBufSize is the scanner's read buffer: records are decoded out of it
// when they fit and byte by byte when they do not.
const scanBufSize = 1 << 20

// recordSpans returns each record's [start, end) byte offsets in an LSQ2
// file holding seqs.
func recordSpans(seqs [][]pattern.Symbol) [][2]int {
	spans := make([][2]int, len(seqs))
	off := 12
	var enc []byte
	for i, seq := range seqs {
		enc = binary.AppendUvarint(enc[:0], uint64(len(seq)))
		for _, d := range seq {
			enc = binary.AppendUvarint(enc, uint64(d))
		}
		spans[i] = [2]int{off, off + len(enc) + 4}
		off = spans[i][1]
	}
	return spans
}

// longAt is the index of edgeDB's record longer than the read buffer.
const longAt = 6000

// edgeDB writes an LSQ2 file whose records cross the read buffer's edges:
// about 1.6 MiB of short records with one- and two-byte symbols, among them
// one straddling file offset 1 MiB, where the first buffer fill ends, and
// then at index longAt a record of 600k two-byte symbols, longer than the
// buffer.
func edgeDB(t *testing.T) (string, []byte, [][]pattern.Symbol, [][2]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var seqs [][]pattern.Symbol
	short := func() []pattern.Symbol {
		s := make([]pattern.Symbol, 1+rng.Intn(300))
		for j := range s {
			s[j] = pattern.Symbol(rng.Intn(400)) // about a third take two bytes
		}
		return s
	}
	for len(seqs) < 8000 {
		seqs = append(seqs, short())
	}
	long := make([]pattern.Symbol, 600_000)
	for j := range long {
		long[j] = pattern.Symbol(128 + rng.Intn(16000))
	}
	seqs = append(seqs[:longAt:longAt], append([][]pattern.Symbol{long}, seqs[longAt:]...)...)
	path := filepath.Join(t.TempDir(), "edge.lsq")
	if err := WriteFile(path, NewMemDB(seqs)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data, seqs, recordSpans(seqs)
}

// straddling returns the index of the record that spans offset off.
func straddling(t *testing.T, spans [][2]int, off int) int {
	t.Helper()
	for i, sp := range spans {
		if sp[0] < off && off < sp[1] {
			return i
		}
	}
	t.Fatalf("no record straddles offset %d", off)
	return -1
}

// scanPath scans path and returns the delivered sequences and the error.
func scanPath(t *testing.T, path string) ([][]pattern.Symbol, error) {
	t.Helper()
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]pattern.Symbol
	err = db.Scan(func(id int, seq []pattern.Symbol) error {
		got = append(got, slices.Clone(seq))
		return nil
	})
	return got, err
}

// sameSeqs fails unless got holds exactly want's sequences.
func sameSeqs(t *testing.T, got, want [][]pattern.Symbol) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scanned %d sequences, wrote %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("sequence %d (length %d) differs after the round trip", i, len(want[i]))
		}
	}
}

// TestDiskScanBufferEdges round-trips records that straddle the read
// buffer's edge and a record longer than the buffer, with multi-byte
// symbols, in LSQ2 and in legacy LSQ1 (no checksum to catch a misdecoded
// record), and checks an LSQ2 file is read exactly once per pass.
func TestDiskScanBufferEdges(t *testing.T) {
	path, data, seqs, spans := edgeDB(t)
	if n := spans[longAt][1] - spans[longAt][0]; n <= scanBufSize {
		t.Fatalf("long record is %d bytes, not longer than the buffer", n)
	}
	if i := straddling(t, spans, scanBufSize); i >= longAt {
		t.Fatalf("record %d straddles the first buffer's end; want a short one", i)
	}
	got, err := scanPath(t, path)
	if err != nil {
		t.Fatal(err)
	}
	sameSeqs(t, got, seqs)
	checkAgainstReference(t, data, got, err)

	legacy := filepath.Join(t.TempDir(), "edge1.lsq")
	w, err := CreateLegacyFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if err := w.Write(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err = scanPath(t, legacy); err != nil {
		t.Fatal(err)
	}
	sameSeqs(t, got, seqs)
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if db.BytesRead() != int64(len(data)) {
		t.Errorf("one pass read %d bytes of a %d-byte file", db.BytesRead(), len(data))
	}
}

// TestDiskScanBufferEdgeDamage truncates and corrupts the file inside the
// record straddling the first buffer fill's end and inside the record
// longer than the buffer: every scan must deliver the reference decoder's
// sequences and fail with its *CorruptError (sequence index, reason and
// cause).
func TestDiskScanBufferEdgeDamage(t *testing.T) {
	_, data, _, spans := edgeDB(t)
	edge := spans[straddling(t, spans, scanBufSize)]
	long := spans[longAt]
	dir := t.TempDir()
	try := func(name string, damaged []byte) {
		t.Helper()
		path := filepath.Join(dir, name+".lsq")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := scanPath(t, path)
		if err == nil {
			t.Fatalf("%s: damaged file scanned cleanly", name)
		}
		checkAgainstReference(t, damaged, got, err)
	}
	for _, sp := range [][2]int{edge, long} {
		for _, cut := range []int{sp[0] + 1, sp[0] + 2, (sp[0] + sp[1]) / 2, sp[1] - 5, sp[1] - 4, sp[1] - 1} {
			try("truncated", data[:cut])
		}
		for _, at := range []int{sp[0] + 3, (sp[0] + sp[1]) / 2, sp[1] - 1} {
			flipped := slices.Clone(data)
			flipped[at] ^= 0x01
			try("flipped", flipped)
		}
	}
	// The first buffer fill ends exactly at the straddling record's byte.
	flipped := slices.Clone(data)
	flipped[scanBufSize] ^= 0x40
	try("flipped-at-edge", flipped)
	try("truncated-at-edge", data[:scanBufSize])
}
