// Caller fixture for the boundeddecode analyzer: node is a
// network-reachable package, so every Unmarshal with a Bound sibling
// must go through the bounded variant.
package node

import (
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

func decodeCiphertext(b []byte) error {
	var c homenc.Ciphertext
	return c.UnmarshalBinary(b) // want `unbounded UnmarshalBinary on a network-reachable path; use UnmarshalBinaryBound with explicit caps`
}

func decodeCiphertextBounded(b []byte) error {
	var c homenc.Ciphertext
	return c.UnmarshalBinaryBound(b, 1024)
}

func decodeHello(b []byte) (wireproto.Hello, error) {
	return wireproto.UnmarshalHello(b) // want `unbounded UnmarshalHello on a network-reachable path; use wireproto.UnmarshalHelloBound with explicit caps`
}

func decodeHelloBounded(b []byte) (wireproto.Hello, error) {
	return wireproto.UnmarshalHelloBound(b, 256)
}

func decodeShare(b []byte) error {
	var s homenc.Share
	return s.UnmarshalText(b) // fine: UnmarshalText has no Bound sibling
}

func decodeTrustedKeyFile(b []byte) error {
	var c homenc.Ciphertext
	return c.UnmarshalBinary(b) //lint:unbounded local key file read at startup, not attacker-controlled
}

func scanVector(b []byte) (int, error) {
	return homenc.ScanVector(b) // want `unbounded ScanVector on a network-reachable path; use homenc.ScanVectorBound with explicit caps`
}

func scanVectorBounded(b []byte) (int, error) {
	return homenc.ScanVectorBound(b, 64)
}
