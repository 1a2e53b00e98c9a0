package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/queryd"
)

func TestDecodeAnswerMatchesEncodingJSON(t *testing.T) {
	server, err := json.Marshal(queryd.ExecResponse{
		Answer: query.Answer{
			PerKey: []query.Estimate{
				{Key: 18446744073709551615, Est: 7, Lower: 3, Upper: 7},
				{Key: 42, Est: 0, Lower: 0, Upper: 0},
			},
			Source:    "sketch",
			Certified: true,
		},
		CachedKeys: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		string(server),
		` { "cached_keys" : 3 , "extra": {"a": [1, "x\"y", {"b": null}], "c": false},
		   "per_key": [ {"upper": 9, "lower": 2, "key": 5, "est": 9} ], "certified": false } `,
		`{"per_key":[],"certified":true}`,
	} {
		var want, got answer
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		got.PerKey = make([]estimate, 5) // stale storage must not leak through
		if err := decodeAnswer([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if len(want.PerKey) == 0 {
			want.PerKey = got.PerKey[:0]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", body, got, want)
		}
	}
}

func TestDecodeAnswerRejectsMalformed(t *testing.T) {
	for _, body := range []string{
		``, `{`, `{"per_key":[{"key":1,"lower":2}`, `{"per_key":[{"key":-1}]}`,
		`{"per_key":[{"key":18446744073709551616}]}`, `{"certified":yes}`, `[1]`,
		`{"a" 1}`, `{"a":1,}`,
	} {
		var a answer
		if err := decodeAnswer([]byte(body), &a); err == nil {
			t.Errorf("%q decoded without error: %+v", body, a)
		}
	}
}
