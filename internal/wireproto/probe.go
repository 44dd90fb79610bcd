package wireproto

import (
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

// The adapters below exist for the benchmark module's layer probes
// (benchmark/probes.go), whose source is frozen with the benchmark: they
// let it time a sum leg from states in value form. The protocol sends
// SumOut and reads SumView, and no adapter keeps another layout alive.

// SumMsg is a sum leg in value form. Noise is not encoded: a leg
// carries one EESum state, Means, whose noise-shares were folded in when
// the participant started. The field stays only because the benchmark
// sets it.
type SumMsg struct {
	Hdr      ExchangeHdr
	Means    eesum.SumState
	Noise    eesum.SumState
	CtrSigma float64
	CtrOmega float64
}

// SideOf encodes a plain EESum state for sending: its vector becomes
// an image of its own.
func SideOf(st eesum.SumState) SumSide {
	return SumSide{CTs: homenc.NewVector(st.CTs), Omega: st.Omega, Epoch: st.Epoch}
}

// MarshalSum encodes m as the sum leg SumOut sends: its header, Means and
// counter. m.Noise is not encoded.
func MarshalSum(m SumMsg) []byte {
	return Marshal(&SumOut{Hdr: m.Hdr, Means: SideOf(m.Means), CtrSigma: m.CtrSigma, CtrOmega: m.CtrOmega})
}

// UnmarshalSum decodes a sum leg into value form: ScanSum, its state
// materialized. Noise is left zero.
func UnmarshalSum(data []byte, lim Limits) (SumMsg, error) {
	v, err := ScanSum(data, lim)
	if err != nil {
		return SumMsg{}, err
	}
	return SumMsg{Hdr: v.Hdr, Means: v.Means.State(), CtrSigma: v.CtrSigma, CtrOmega: v.CtrOmega}, nil
}
