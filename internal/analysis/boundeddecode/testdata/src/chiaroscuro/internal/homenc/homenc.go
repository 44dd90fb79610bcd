// Provider fixture for the boundeddecode analyzer: a decoder method
// with a Bound sibling, and one without. homenc itself is not a
// network-reachable package, so calls inside it are not flagged.
package homenc

import "errors"

type Ciphertext struct{ b []byte }

func (c *Ciphertext) UnmarshalBinary(data []byte) error {
	c.b = append([]byte(nil), data...)
	return nil
}

func (c *Ciphertext) UnmarshalBinaryBound(data []byte, max int) error {
	if len(data) > max {
		return errors.New("too large")
	}
	return c.UnmarshalBinary(data) // out of scope: homenc is not network-reachable
}

type Share struct{ b []byte }

// UnmarshalText has no Bound sibling, so calls to it are never flagged.
func (s *Share) UnmarshalText(data []byte) error {
	s.b = append([]byte(nil), data...)
	return nil
}

// ScanVector has a Bound sibling: the structural scans are decoders too.
func ScanVector(data []byte) (int, error) { return ScanVectorBound(data, 1<<20) }

func ScanVectorBound(data []byte, maxLen int) (int, error) {
	if len(data) > maxLen {
		return 0, errors.New("too large")
	}
	return len(data), nil
}
