package relation

import "encoding/binary"

// This file is the one place that encodes values and tuples into the
// collision-free string keys used for set membership throughout the
// system. The encoding is a length-prefixed concatenation — a uvarint
// length followed by the raw value bytes — so no value content can
// collide with a separator, and encoding is a pure append: callers on
// hot paths reuse a scratch buffer and pay zero allocations per key.

// AppendValueKey appends the collision-free encoding of one value.
func AppendValueKey(dst []byte, v Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// AppendKey appends the collision-free encoding of the tuple. Encoding
// a prefix of a tuple never yields the encoding of a different tuple,
// and distinct tuples encode to distinct byte strings.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// Key encodes the tuple as a collision-free string, used for set
// membership. It is AppendKey materialised as a string; code that
// builds many keys should keep a scratch buffer and use AppendKey.
func (t Tuple) Key() string {
	return string(t.AppendKey(make([]byte, 0, 8*len(t)+16)))
}
