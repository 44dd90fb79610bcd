package datasets

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"testing"

	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/timeseries"
)

func TestGenerateProfilesDeterministicAndLabeled(t *testing.T) {
	d, _ := GenerateCER(12, randx.New(7, 0xCE2))
	a := GenerateProfiles(d, 2, 1.5, CERMin, CERMax, randx.New(ProfileSeed(7), 0x90F))
	b := GenerateProfiles(d, 2, 1.5, CERMin, CERMax, randx.New(ProfileSeed(7), 0x90F))
	if len(a) != 24 {
		t.Fatalf("got %d profiles, want 24", len(a))
	}
	for i := range a {
		if a[i].User != i/2 || a[i].Rep != i%2 {
			t.Fatalf("profile %d labeled (%d,%d), want (%d,%d)", i, a[i].User, a[i].Rep, i/2, i%2)
		}
		for j := range a[i].Series {
			if a[i].Series[j] != b[i].Series[j] {
				t.Fatalf("profile %d measure %d differs across same-seed runs", i, j)
			}
			if a[i].Series[j] < CERMin || a[i].Series[j] > CERMax {
				t.Fatalf("profile %d measure %d = %v outside [%v, %v]",
					i, j, a[i].Series[j], CERMin, CERMax)
			}
		}
	}
	// The observation noise must actually perturb: profiles are aux
	// side-channel views, not copies of the raw series.
	same := 0
	for i, p := range a {
		src := d.Row(p.User)
		if p.Series.Dist2(src) == 0 {
			same++
		}
		_ = i
	}
	if same == len(a) {
		t.Fatal("profiles are exact copies of the source series")
	}
}

func TestProfileSeedDecorrelates(t *testing.T) {
	if ProfileSeed(1) == 1 || ProfileSeed(1) == ProfileSeed(2) {
		t.Fatalf("ProfileSeed not mixing: %x %x", ProfileSeed(1), ProfileSeed(2))
	}
}

func TestProfilesCSVRoundTrip(t *testing.T) {
	d, _ := GenerateNUMED(5, randx.New(3, 0x97ED))
	ps := GenerateProfiles(d, 3, 0.8, NUMEDMin, NUMEDMax, randx.New(ProfileSeed(3), 0x90F))
	var buf bytes.Buffer
	if err := WriteProfilesCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, err := readProfilesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("round trip lost rows: %d != %d", len(got), len(ps))
	}
	for i := range got {
		if got[i].User != ps[i].User || got[i].Rep != ps[i].Rep {
			t.Fatalf("row %d labels drifted", i)
		}
		for j := range got[i].Series {
			if got[i].Series[j] != ps[i].Series[j] {
				t.Fatalf("row %d measure %d drifted", i, j)
			}
		}
	}
	ds, owners := ProfilesDataset(ps)
	if ds.Len() != len(ps) || len(owners) != len(ps) || owners[4] != 1 {
		t.Fatalf("ProfilesDataset shape wrong: len %d owners %v", ds.Len(), owners)
	}
}

// readProfilesCSV reads profiles written by WriteProfilesCSV.
func readProfilesCSV(r io.Reader) ([]Profile, error) {
	cr := csv.NewReader(r)
	var out []Profile
	dim := -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(rec) < 3 {
			return nil, fmt.Errorf("datasets: profile row has %d fields, want >= 3", len(rec))
		}
		if dim == -1 {
			dim = len(rec) - 2
		}
		if len(rec)-2 != dim {
			return nil, timeseries.ErrRagged
		}
		user, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("datasets: bad user label %q: %w", rec[0], err)
		}
		rep, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("datasets: bad rep label %q: %w", rec[1], err)
		}
		s := make(timeseries.Series, dim)
		for j, f := range rec[2:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("datasets: bad measure %q: %w", f, err)
			}
			s[j] = v
		}
		out = append(out, Profile{User: user, Rep: rep, Series: s})
	}
	if len(out) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	return out, nil
}
