package chaosledger

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	v := EncodeValue(42, []byte("c1k7"), 64)
	if len(v) != 64 {
		t.Fatalf("encoded %d bytes, want padding to 64", len(v))
	}
	ver, key, err := DecodeValue(v)
	if err != nil || ver != 42 || string(key) != "c1k7" {
		t.Fatalf("decode = %d, %q, %v; want 42, c1k7, nil", ver, key, err)
	}
}

func TestCodecRejects(t *testing.T) {
	good := EncodeValue(3, []byte("k"), 16)
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] = 'y'
	for _, tc := range []struct {
		name, v, want string
	}{
		{"corrupt padding", string(corrupt), "corrupt padding"},
		{"missing key field", "3|k", "missing key field"},
		{"empty key field", "3||xx", "missing key field"},
		{"missing version", "|k|xx", "missing version field"},
		{"bad version", "3a|k|xx", "bad version field"},
	} {
		if _, _, err := DecodeValue([]byte(tc.v)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: DecodeValue(%q) = %v, want %q", tc.name, tc.v, err, tc.want)
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 8; i++ {
		if x, y := a.Next(), b.Next(); x != y || x == 0 {
			t.Fatalf("draw %d: %d vs %d", i, x, y)
		}
	}
	if z := NewRand(0); z.Next() == 0 {
		t.Fatal("zero seed yields a stuck stream")
	}
}

func TestKeyWindow(t *testing.T) {
	k := NewKey()
	name := []byte("k")
	v1, v2, v3 := k.Begin(), k.Begin(), k.Begin()
	k.Acked = v1
	k.Pending[v2] = struct{}{}
	now := time.Now()
	for _, ver := range []uint64{v1, v2} {
		got, err := k.Check(name, EncodeValue(ver, name, 8), now)
		if err != nil || got != ver {
			t.Fatalf("Check(v%d) = %d, %v", ver, got, err)
		}
		if err := k.CheckWindow(ver); err != nil {
			t.Errorf("v%d outside window: %v", ver, err)
		}
	}
	if err := k.CheckWindow(v3); err == nil {
		t.Error("never-acked, never-pending version accepted")
	}
	if _, err := k.Check([]byte("other"), EncodeValue(v1, name, 8), now); err == nil {
		t.Error("value of another key accepted")
	}

	// A TTL'd version is legal until its deadline plus grace, then never.
	exp := k.Expire(v1, time.Second)
	if exp <= now.Unix() {
		t.Fatalf("Expire returned %d, want an absolute unix time after now", exp)
	}
	late := time.Unix(exp, 0).Add(TTLGrace + time.Millisecond)
	if _, err := k.Check(name, EncodeValue(v1, name, 8), now); err != nil {
		t.Errorf("unexpired value rejected: %v", err)
	}
	if !k.Expired(v1, late) {
		t.Error("version not expired past deadline plus grace")
	}
	if _, err := k.Check(name, EncodeValue(v1, name, 8), late); err == nil || !strings.Contains(err.Error(), "expired value served") {
		t.Errorf("expired value accepted: %v", err)
	}
}
