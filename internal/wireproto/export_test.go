package wireproto

// SetPoolKeep caps how many idle buffers each size class of the frame
// pool retains and returns a function restoring the previous cap. Call
// it only while no frame I/O is in flight. Tests only.
func SetPoolKeep(n int) (restore func()) {
	prev := poolKeep
	poolKeep = n
	return func() { poolKeep = prev }
}
