package main

import (
	"reflect"
	"strings"
	"testing"

	"dsarp/internal/timing"
)

func TestParseDensities(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []timing.Density
		err  string
	}{
		{in: "32", want: []timing.Density{timing.Gb32}},
		{in: "8, 16,32", want: []timing.Density{timing.Gb8, timing.Gb16, timing.Gb32}},
		{in: "99", want: []timing.Density{99}},
		{in: "0", err: "-density 0: must be positive"},
		{in: "-8", err: "-density -8: must be positive"},
		{in: "8,0", err: "-density 0: must be positive"},
		{in: "eight", err: `-density "eight"`},
		{in: "", err: `-density ""`},
	} {
		got, err := parseDensities(c.in)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("parseDensities(%q) = %v, %v; want an error containing %q", c.in, got, err, c.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseDensities(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
