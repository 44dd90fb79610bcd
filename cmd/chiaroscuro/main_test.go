package main

import (
	"errors"
	"fmt"
	"testing"

	"chiaroscuro"
)

func TestErrorLineNamesTheCommandOnce(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{fmt.Errorf("%w: measure 99 at series 3", chiaroscuro.ErrBadRange),
			chiaroscuro.ErrBadRange.Error() + ": measure 99 at series 3"},
		{chiaroscuro.ErrNoData, "chiaroscuro: nil or empty dataset"},
		{errors.New(`unknown mode "x"`), `chiaroscuro: unknown mode "x"`},
	} {
		if got := errorLine(tc.err); got != tc.want {
			t.Errorf("errorLine(%q) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
