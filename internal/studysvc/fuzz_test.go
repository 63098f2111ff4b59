package studysvc

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCanonicalize fuzzes the result cache's key domain: two POST
// /v1/study bodies go through request decoding and canonicalize. For
// any input it must not panic; canonicalizing a canonical request
// must be the identity; and two requests may share a key only if their
// canonical forms are equal (a collision would serve one study's
// result for another). The committed corpus in testdata/fuzz pairs
// bodies that must share a key with ones that must not. Run longer
// with:
//
//	go test -run '^$' -fuzz FuzzCanonicalize -fuzztime 20s ./internal/studysvc
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ca, okA := fuzzCanonical(t, a)
		cb, okB := fuzzCanonical(t, b)
		if okA && okB && ca.key() == cb.key() && !reflect.DeepEqual(ca, cb) {
			t.Fatalf("distinct canonical forms share key %q:\n%+v\n%+v", ca.key(), ca, cb)
		}
	})
}

// fuzzCanonical decodes and canonicalizes one body, checking that
// canonicalization is idempotent; ok is false for rejected bodies.
func fuzzCanonical(t *testing.T, body []byte) (c Canonical, ok bool) {
	req, err := decodeRequest(bytes.NewReader(body))
	if err != nil {
		return Canonical{}, false
	}
	c, err = canonicalize(req)
	if err != nil {
		return Canonical{}, false
	}
	again, err := canonicalize(Request(c))
	if err != nil {
		t.Fatalf("canonical form %+v rejected on a second pass: %v", c, err)
	}
	if !reflect.DeepEqual(again, c) {
		t.Fatalf("canonicalize is not idempotent:\nonce  %+v\ntwice %+v", c, again)
	}
	return c, true
}
