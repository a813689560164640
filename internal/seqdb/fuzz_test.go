package seqdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/pattern"
)

// FuzzDiskScan checks that scanning arbitrary bytes as a database file never
// panics: it either errors cleanly or yields well-formed sequences. Seeds
// cover all three on-disk formats (LSQ2, legacy LSQ1, gzip-compressed LSQZ).
// For LSQ1/LSQ2 input the scan must also deliver exactly the sequences and
// fail with exactly the error (sequence index, reason, cause) of
// referenceScan, the per-byte decoder the buffered fast path replaced.
func FuzzDiskScan(f *testing.F) {
	dir := f.TempDir()
	seedDB := NewMemDB([][]pattern.Symbol{{0, 1, 2}, {3}})
	good := filepath.Join(dir, "seed.lsq")
	if err := WriteFile(good, seedDB); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	legacy := filepath.Join(dir, "seed1.lsq")
	lw, err := CreateLegacyFile(legacy)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < seedDB.Len(); i++ {
		if err := lw.Write(seedDB.Seq(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		f.Fatal(err)
	}
	rawLegacy, err := os.ReadFile(legacy)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawLegacy)

	packed := filepath.Join(dir, "seed.lsqz")
	if err := WriteGzipFile(packed, seedDB); err != nil {
		f.Fatal(err)
	}
	rawGzip, err := os.ReadFile(packed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawGzip)
	// A gzip container whose deflate body is cut short.
	f.Add(rawGzip[:len(rawGzip)-6])

	// A symbol varint above math.MaxInt32, in an LSQ1 and a checksummed
	// LSQ2 record.
	huge := []uint64{1, math.MaxInt32 + 1}
	f.Add(append([]byte("LSQ1\x01\x00\x00\x00\x00\x00\x00\x00"), rawRecord(huge, false)...))
	f.Add(append(append([]byte("LSQ2\x01\x00\x00\x00\x00\x00\x00\x00"), rawRecord(huge, true)...), diskTrailer[:]...))
	f.Add([]byte("LSQ1garbage"))
	f.Add([]byte("LSQ2garbage"))
	f.Add([]byte("LSQZgarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.lsq")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenAuto(path)
		if err != nil {
			return
		}
		var got [][]pattern.Symbol
		err = db.Scan(func(id int, seq []pattern.Symbol) error {
			if len(seq) == 0 {
				t.Fatal("scanner produced an empty sequence")
			}
			got = append(got, slices.Clone(seq))
			return nil
		})
		if _, ok := db.(*DiskDB); ok {
			checkAgainstReference(t, data, got, err)
		}
	})
}

// checkAgainstReference requires a DiskDB scan of data — the sequences it
// delivered and the error it ended with — to match referenceScan's.
func checkAgainstReference(t *testing.T, data []byte, got [][]pattern.Symbol, err error) {
	t.Helper()
	want, wantErr := referenceScan(data)
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("sequence %d: scan %v, reference %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan delivered %d sequences, reference %d", len(got), len(want))
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("scan error %v, reference error %v", err, wantErr)
	}
	if err == nil {
		return
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("scan error %v is not a *CorruptError", err)
	}
	if ce.Seq != wantErr.Seq || ce.Msg != wantErr.Msg || fmt.Sprint(ce.Err) != fmt.Sprint(wantErr.Err) {
		t.Fatalf("scan error (seq %d, %q, %v), reference (seq %d, %q, %v)",
			ce.Seq, ce.Msg, ce.Err, wantErr.Seq, wantErr.Msg, wantErr.Err)
	}
}

// referenceScan decodes an LSQ1/LSQ2 file byte by byte, exactly as the
// scanner did before records were decoded out of the read buffer: it
// returns the sequences decoded before the first damage and a
// *CorruptError naming that damage (nil for a clean file).
func referenceScan(data []byte) ([][]pattern.Symbol, *CorruptError) {
	fail := func(seq int, msg string, err error) *CorruptError {
		return &CorruptError{Seq: seq, Msg: msg, Err: err}
	}
	checksummed := [4]byte(data[:4]) == diskMagicV2
	n := int(binary.LittleEndian.Uint64(data[4:12]))
	r := &recordingReader{r: bytes.NewReader(data[12:])}
	var out [][]pattern.Symbol
	for i := 0; i < n; i++ {
		r.rec = r.rec[:0]
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return out, fail(i, "truncated length", err)
		}
		if l == 0 || l > MaxSequenceLen {
			return out, fail(i, fmt.Sprintf("invalid length %d", l), nil)
		}
		var seq []pattern.Symbol
		for j := 0; j < int(l); j++ {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return out, fail(i, fmt.Sprintf("truncated at symbol %d", j), err)
			}
			if v > math.MaxInt32 {
				return out, fail(i, fmt.Sprintf("symbol %d at position %d exceeds %d", v, j, math.MaxInt32), nil)
			}
			seq = append(seq, pattern.Symbol(v))
		}
		if checksummed {
			var stored [4]byte
			if _, err := io.ReadFull(r.r, stored[:]); err != nil {
				return out, fail(i, "truncated checksum", err)
			}
			if got, want := crc32.ChecksumIEEE(r.rec), binary.LittleEndian.Uint32(stored[:]); got != want {
				return out, fail(i, fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want), nil)
			}
		}
		out = append(out, seq)
	}
	if checksummed {
		var tr [8]byte
		if _, err := io.ReadFull(r.r, tr[:]); err != nil {
			return out, fail(-1, "missing end-of-stream trailer", err)
		}
		if tr != diskTrailer {
			return out, fail(-1, fmt.Sprintf("bad end-of-stream trailer %q", tr[:]), nil)
		}
	}
	if _, err := r.r.ReadByte(); err != io.EOF {
		return out, fail(-1, fmt.Sprintf("trailing garbage after %d sequences", n), nil)
	}
	return out, nil
}

// recordingReader keeps the bytes of the record being decoded.
type recordingReader struct {
	r   *bytes.Reader
	rec []byte
}

func (r *recordingReader) ReadByte() (byte, error) {
	b, err := r.r.ReadByte()
	if err == nil {
		r.rec = append(r.rec, b)
	}
	return b, err
}
