package datasets

import (
	"encoding/csv"
	"io"
	"strconv"

	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

// Profile is one candidate observation of a user's series: the auxiliary
// information a linkage adversary holds (arXiv 1710.00197's "user
// profiles"). User is the ground-truth owner index into the dataset the
// profiles were drawn from; Rep distinguishes repeated observations of
// the same user.
type Profile struct {
	User   int
	Rep    int
	Series timeseries.Series
}

// ProfileSeed derives the replayable profile-observation seed from the
// dataset seed with the SplitMix64 finalizer — the same mixer family as
// cmd/soak's shard seeds — so the observation noise stream is
// decorrelated from the dataset stream but replays alone from the
// printed seed.
func ProfileSeed(base uint64) uint64 {
	x := base ^ 0x50F11E5D_A7A5E70 // "profile dataset" tweak
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GenerateProfiles draws reps noisy candidate observations of every
// series of d — each profile is its owner's series plus i.i.d. Gaussian
// observation noise of the given standard deviation, clamped to
// [lo, hi]. The result is the labeled ground truth the linkage attack
// of internal/attack matches against the released centroids; the
// adversary model is a side channel that sees each user's measures
// imperfectly (a neighboring meter, a coarser-grained service, an old
// leak of the same household).
//
// Profiles come out in deterministic (user, rep) order; drive rng from
// ProfileSeed for a stream that replays independently of the dataset.
func GenerateProfiles(d *timeseries.Dataset, reps int, noise, lo, hi float64, rng *randx.RNG) []Profile {
	if reps < 1 {
		reps = 1
	}
	out := make([]Profile, 0, d.Len()*reps)
	for u := 0; u < d.Len(); u++ {
		src := d.Row(u)
		for r := 0; r < reps; r++ {
			s := make(timeseries.Series, len(src))
			for j, v := range src {
				s[j] = v + rng.Gaussian(0, noise)
			}
			s.Clamp(lo, hi)
			out = append(out, Profile{User: u, Rep: r, Series: s})
		}
	}
	return out
}

// ProfilesDataset flattens profiles into a dense dataset plus the
// parallel owner-label slice the attack scorer consumes.
func ProfilesDataset(ps []Profile) (*timeseries.Dataset, []int) {
	if len(ps) == 0 {
		return nil, nil
	}
	d := timeseries.NewDatasetCap(len(ps[0].Series), len(ps))
	owners := make([]int, 0, len(ps))
	for _, p := range ps {
		d.Append(p.Series)
		owners = append(owners, p.User)
	}
	return d, owners
}

// WriteProfilesCSV writes labeled profiles as CSV: user, rep, then the
// measures. The label columns are the linkage ground truth; strip them
// to obtain the anonymized candidate set an adversary would publish.
func WriteProfilesCSV(w io.Writer, ps []Profile) error {
	cw := csv.NewWriter(w)
	for _, p := range ps {
		rec := make([]string, 0, len(p.Series)+2)
		rec = append(rec, strconv.Itoa(p.User), strconv.Itoa(p.Rep))
		for _, v := range p.Series {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
