package tensor

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestTNSRoundtrip(t *testing.T) {
	x := NewCOO([]int{4, 5, 6}, 3)
	x.Append([]int{0, 0, 0}, 1.5)
	x.Append([]int{3, 4, 5}, -2.25)
	x.Append([]int{1, 2, 3}, 1e-9)

	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 3 || got.NNZ() != 3 {
		t.Fatalf("roundtrip shape: order=%d nnz=%d", got.Order(), got.NNZ())
	}
	for m := range x.Dims {
		if got.Dims[m] != x.Dims[m] {
			t.Fatalf("dims differ: %v vs %v", got.Dims, x.Dims)
		}
	}
	for i := 0; i < x.NNZ(); i++ {
		for m := range x.Dims {
			if got.Idx[m][i] != x.Idx[m][i] {
				t.Fatalf("index mismatch at nz %d mode %d", i, m)
			}
		}
		if math.Abs(got.Val[i]-x.Val[i]) > 0 {
			t.Fatalf("value mismatch at nz %d: %v vs %v", i, got.Val[i], x.Val[i])
		}
	}
}

// TestTNSRoundTripFormats checks that the on-disk format is independent
// of the in-memory coordinate order: an unsorted COO with a duplicate
// reloads to the same canonical tensor, and once canonical, writing and
// reading back is a byte-exact fixed point.
func TestTNSRoundTripFormats(t *testing.T) {
	x := NewCOO([]int{5, 7, 3}, 0)
	x.Append([]int{4, 6, 2}, 1.25)
	x.Append([]int{0, 0, 0}, -3)
	x.Append([]int{4, 0, 2}, 0.5)
	x.Append([]int{2, 3, 1}, 7)
	x.Append([]int{4, 0, 2}, 0.25)

	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	canon := x.Clone().SortDedup()
	got.SortDedup()
	for m := range x.Dims {
		if got.Dims[m] != x.Dims[m] {
			t.Fatalf("dims changed: %v -> %v", x.Dims, got.Dims)
		}
	}
	da := DenseFromCOO(canon)
	db := DenseFromCOO(got)
	for i := range da.Data {
		if da.Data[i] != db.Data[i] {
			t.Fatalf("round trip changed entry %d: %v -> %v", i, da.Data[i], db.Data[i])
		}
	}

	var first, second bytes.Buffer
	if err := WriteTNS(&first, got); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTNS(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTNS(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("canonical round trip is not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
	}
}

func TestReadTNSWithoutHeader(t *testing.T) {
	in := "1 1 1 2.0\n3 2 4 -1\n"
	x, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Dims[0] != 3 || x.Dims[1] != 2 || x.Dims[2] != 4 {
		t.Fatalf("inferred dims %v", x.Dims)
	}
	if x.NNZ() != 2 {
		t.Fatalf("nnz = %d", x.NNZ())
	}
}

func TestReadTNSCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\n1 1 3.5\n# another\n2 2 1\n"
	x, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 2 || x.NNZ() != 2 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
}

func TestReadTNSErrors(t *testing.T) {
	cases := []string{
		"",                   // empty
		"1 1\n",              // missing value? (order would be 1, coordinate "1" value "1" -- actually valid)
		"0 1 1 5\n",          // zero coordinate (1-based required)
		"1 1 abc\n",          // bad value
		"x 1 1 5\n",          // bad coordinate
		"1 1 1 5\n1 1 5\n",   // inconsistent field count
		"# dims: 2\n1 1 5\n", // header/data mode mismatch
	}
	for i, in := range cases {
		if i == 1 {
			continue // "1 1" parses as a 1-mode nonzero; skip
		}
		if _, err := ReadTNS(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): expected error", i, in)
		}
	}
}

func TestTNSFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tns")
	x := NewCOO([]int{2, 2}, 1)
	x.Append([]int{1, 0}, 42)
	if err := WriteTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTNSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 1 || got.Val[0] != 42 {
		t.Fatal("file roundtrip failed")
	}
	if _, err := ReadTNSFile(filepath.Join(dir, "missing.tns")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadTNSMalformed(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"short line", "1 2 3 1.0\n1 2\n", "line 2"},
		{"non-numeric coord", "1 x 1.5\n", "bad coordinate"},
		{"non-numeric value", "1 2 zz\n", "bad value"},
		{"inconsistent arity", "1 2 3 1.0\n1 2 3 4 1.0\n", "expected 4 fields"},
		{"zero coordinate", "0 1 1.0\n", "1-based"},
		{"out of range vs header", "# dims: 2 2\n3 1 1.0\n", "out of range"},
		{"late header out of range", "3 1 1.0\n# dims: 2 2\n", "out of range"},
		{"header arity mismatch", "# dims: 2 2 2\n1 1 1.0\n", "dims header"},
		{"duplicate header", "# dims: 2 2\n# dims: 2 2\n", "duplicate dims header"},
		{"negative mode size", "# dims: -1 2\n", "must be positive"},
		{"empty header", "# dims:\n", "empty dims header"},
		{"value only", "1.5\n", "at least one coordinate"},
		{"huge coordinate", "4294967296 1 1.0\n", "int32"},
		{"empty input", "", "empty input"},
	}
	for _, tc := range cases {
		_, err := ReadTNS(strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%s: accepted %q", tc.name, tc.in)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q lacks %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestReadTNSLineNumbers(t *testing.T) {
	_, err := ReadTNS(strings.NewReader("# c\n\n1 1 1.0\n1 bad 1.0\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want line-4 error, got %v", err)
	}
}

func TestReadTNSInt32Boundary(t *testing.T) {
	// The largest accepted coordinate must survive a write/read round
	// trip (its inferred mode size is re-accepted by the dims header
	// parser); one past it is rejected.
	x, err := ReadTNS(strings.NewReader("2147483647 1.0\n"))
	if err != nil {
		t.Fatalf("max int32 coordinate rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTNS(&buf); err != nil {
		t.Fatalf("boundary round trip rejected: %v", err)
	}
	if _, err := ReadTNS(strings.NewReader("2147483648 1.0\n")); err == nil {
		t.Fatal("coordinate 2^31 accepted")
	}
}
