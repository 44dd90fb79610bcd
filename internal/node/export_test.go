package node

// FailPeer charges peer one initiator-side exchange failure, as a failed
// slot does: under Policy.SuspicionK 1 it evicts the peer.
func (nd *Node) FailPeer(peer int) { nd.peerFailed(peer, slot{}) }

// PeerUnreachable reports whether the node would fast-fail a dial to
// peer (evicted, departed or unknown).
func (nd *Node) PeerUnreachable(peer int) bool { return nd.peerUnreachable(peer) }
