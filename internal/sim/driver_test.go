package sim

import "testing"

func TestDriverNamesRoundTrip(t *testing.T) {
	for _, d := range AllDrivers() {
		got, err := ParseDriver(d.String())
		if err != nil {
			t.Fatalf("ParseDriver(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("ParseDriver(%q) = %v, want %v", d.String(), got, d)
		}
	}
	if _, err := ParseDriver("bogus"); err == nil {
		t.Error("ParseDriver accepted an unknown name")
	}
}

func TestAllDriversReferenceFirst(t *testing.T) {
	ds := AllDrivers()
	if len(ds) != 2 || ds[0] != Lockstep || ds[1] != Workers {
		t.Fatalf("AllDrivers() = %v, want [lockstep workers]", ds)
	}
}

func TestWithDriver(t *testing.T) {
	base := Config{BandwidthBits: 7}
	got := base.WithDriver(Workers)
	if got.Driver != Workers || got.BandwidthBits != 7 {
		t.Errorf("WithDriver: got %+v", got)
	}
	if base.Driver != 0 {
		t.Error("WithDriver mutated the receiver")
	}
}
