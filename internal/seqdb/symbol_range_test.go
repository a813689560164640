package seqdb

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pattern"
)

// rawRecord encodes one record of raw symbol varints, with the CRC an LSQ2
// or LSA1 record carries when checksummed.
func rawRecord(syms []uint64, checksummed bool) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(syms)))
	for _, v := range syms {
		rec = binary.AppendUvarint(rec, v)
	}
	if checksummed {
		rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	}
	return rec
}

// TestDecodersRejectSymbolAboveInt32: a symbol varint above math.MaxInt32
// would wrap negative as a pattern.Symbol, so every decoder rejects it — a
// CorruptError naming the sequence and position for LSQ1, LSQ2 (whose CRC
// is valid) and LSQZ, the end of the intact log for LSA1 — while
// math.MaxInt32 itself still decodes.
func TestDecodersRejectSymbolAboveInt32(t *testing.T) {
	recs := [][]uint64{{math.MaxInt32, 2}, {3, math.MaxInt32 + 1, 4}, {5}}
	const msg = "symbol 2147483648 at position 1 exceeds 2147483647"
	dir := t.TempDir()
	check := func(name string, db Scanner) {
		t.Helper()
		var got [][]pattern.Symbol
		err := db.Scan(func(_ int, seq []pattern.Symbol) error {
			got = append(got, append([]pattern.Symbol(nil), seq...))
			return nil
		})
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Seq != 1 || ce.Msg != msg {
			t.Fatalf("%s: scan error %v, want a CorruptError at sequence 1: %s", name, err, msg)
		}
		if len(got) != 1 || got[0][0] != math.MaxInt32 || got[0][1] != 2 {
			t.Fatalf("%s: delivered %v before the damage", name, got)
		}
	}
	for _, f := range []struct {
		magic       [4]byte
		checksummed bool
	}{{diskMagic, false}, {diskMagicV2, true}} {
		data := append(f.magic[:], binary.LittleEndian.AppendUint64(nil, uint64(len(recs)))...)
		for _, r := range recs {
			data = append(data, rawRecord(r, f.checksummed)...)
		}
		if f.checksummed {
			data = append(data, diskTrailer[:]...)
		}
		path := filepath.Join(dir, string(f.magic[:])+".lsq")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenAuto(path)
		if err != nil {
			t.Fatal(err)
		}
		check(string(f.magic[:]), db)
	}

	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	for _, r := range recs {
		zw.Write(rawRecord(r, false))
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "z.lsqz")
	data := append(gzipMagic[:], binary.LittleEndian.AppendUint64(nil, uint64(len(recs)))...)
	if err := os.WriteFile(gz, append(data, body.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenAuto(gz)
	if err != nil {
		t.Fatal(err)
	}
	check("LSQZ", db)

	// The log: a checksummed record with an oversized symbol ends the intact
	// log, as a damaged record does, so every indexed record scans.
	logPath := filepath.Join(dir, "l.lsa")
	w, err := CreateAppend(logPath)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, []pattern.Symbol{math.MaxInt32, 2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(rawRecord(recs[1], true), rawRecord(recs[2], true)...)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ro, err := OpenAppendRead(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got := collectSeqs(t, ro); len(got) != 1 || got[0][0] != math.MaxInt32 {
		t.Fatalf("log recovered %v, want only the first record", got)
	}
}

// TestWritersRejectNegativeSymbols: no writer stores a symbol its decoder
// would refuse.
func TestWritersRejectNegativeSymbols(t *testing.T) {
	dir := t.TempDir()
	bad := []pattern.Symbol{1, -5}
	lw, err := CreateFile(filepath.Join(dir, "a.lsq"))
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	if err := lw.Write(bad); err == nil {
		t.Error("LSQ2 writer accepted a negative symbol")
	}
	gw, err := CreateGzipFile(filepath.Join(dir, "a.lsqz"))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.Write(bad); err == nil {
		t.Error("gzip writer accepted a negative symbol")
	}
	aw, err := CreateAppend(filepath.Join(dir, "a.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	defer aw.Close()
	if _, err := aw.Append(bad); err == nil {
		t.Error("append log accepted a negative symbol")
	}
}
