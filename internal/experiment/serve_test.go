package experiment

import (
	"reflect"
	"testing"

	"locsched/internal/cache"
	"locsched/internal/mpsoc"
)

// TestConfigDigest pins the serving cache key contract: perturbing any
// output-affecting field of Config, mpsoc.Config or mpsoc.Machine
// changes the digest, and perturbing a field that only changes speed or
// side channels (or spells the same behaviour differently) does not.
// Every field of the three structs must appear in the table, so a new
// field cannot silently join or escape the digest.
func TestConfigDigest(t *testing.T) {
	cases := []struct {
		field   string // struct.field the case perturbs
		mutate  func(*Config)
		changes bool
	}{
		{"Config.Quantum", func(c *Config) { c.Quantum++ }, true},
		{"Config.Seed", func(c *Config) { c.Seed++ }, true},
		{"Config.Align", func(c *Config) { c.Align *= 2 }, true},
		{"Config.Affinity", func(c *Config) { c.Affinity++ }, true},
		{"Config.QBatch", func(c *Config) { c.QBatch++ }, true},
		{"Config.AffinityDecay", func(c *Config) { c.AffinityDecay++ }, true},
		{"Config.Workload", func(c *Config) { c.Workload.Scale++ }, true},
		{"Config.Workers", func(c *Config) { c.Workers = 7 }, false},
		{"Config.Machine", func(c *Config) { c.Machine.Cores++ }, true},

		{"mpsoc.Config.Cores", func(c *Config) { c.Machine.Cores *= 2 }, true},
		{"mpsoc.Config.Cache", func(c *Config) { c.Machine.Cache.Size *= 2 }, true},
		{"mpsoc.Config.Cache", func(c *Config) { c.Machine.Cache.BlockSize *= 2 }, true},
		{"mpsoc.Config.Cache", func(c *Config) { c.Machine.Cache.Assoc *= 2 }, true},
		{"mpsoc.Config.Replacement", func(c *Config) { c.Machine.Replacement = cache.FIFO }, true},
		{"mpsoc.Config.Indexing", func(c *Config) { c.Machine.Indexing = cache.PrimeModuloIndexing }, true},
		{"mpsoc.Config.Classify", func(c *Config) { c.Machine.Classify = !c.Machine.Classify }, true},
		{"mpsoc.Config.HitLatency", func(c *Config) { c.Machine.HitLatency++ }, true},
		{"mpsoc.Config.MissPenalty", func(c *Config) { c.Machine.MissPenalty++ }, true},
		{"mpsoc.Config.ClockMHz", func(c *Config) { c.Machine.ClockMHz++ }, true},
		{"mpsoc.Config.Seed", func(c *Config) { c.Machine.Seed++ }, true},
		{"mpsoc.Config.RecordTimeline", func(c *Config) { c.Machine.RecordTimeline = true }, false},
		{"mpsoc.Config.BusFactor", func(c *Config) { c.Machine.BusFactor = 0.5 }, true},
		{"mpsoc.Config.WritePolicy", func(c *Config) { c.Machine.WritePolicy = cache.WriteBack }, true},
		{"mpsoc.Config.WritebackPenalty", func(c *Config) { c.Machine.WritebackPenalty++ }, true},
		{"mpsoc.Config.Machine", func(c *Config) { c.Machine.Machine.HopPenalty++ }, true},

		{"mpsoc.Machine.SpeedClasses", func(c *Config) { c.Machine.Machine.SpeedClasses = "1,2" }, true},
		{"mpsoc.Machine.Topology", func(c *Config) { c.Machine.Machine.Topology = mpsoc.TopoMesh }, true},
		{"mpsoc.Machine.HopPenalty", func(c *Config) { c.Machine.Machine.HopPenalty = 16 }, true},
	}

	covered := make(map[string]bool)
	for _, c := range cases {
		covered[c.field] = true
	}
	for prefix, typ := range map[string]reflect.Type{
		"Config":        reflect.TypeOf(Config{}),
		"mpsoc.Config":  reflect.TypeOf(mpsoc.Config{}),
		"mpsoc.Machine": reflect.TypeOf(mpsoc.Machine{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if name := prefix + "." + typ.Field(i).Name; !covered[name] {
				t.Errorf("%s has no ConfigDigest case", name)
			}
		}
	}

	base := DefaultConfig()
	want := ConfigDigest(base)
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		if reflect.DeepEqual(cfg, base) {
			t.Fatalf("%s: mutation left the config unchanged", c.field)
		}
		if got := ConfigDigest(cfg) != want; got != c.changes {
			t.Errorf("%s: digest changed = %v, want %v", c.field, got, c.changes)
		}
	}

	// QBatch 0 and 1 both grant a single quantum per warm resume.
	zero, one := base, base
	zero.QBatch, one.QBatch = 0, 1
	if ConfigDigest(zero) != ConfigDigest(one) {
		t.Error("QBatch 0 and 1 give different digests for the same behaviour")
	}
	two := base
	two.QBatch = 2
	if ConfigDigest(two) == ConfigDigest(one) {
		t.Error("QBatch 2 shares the single-quantum digest")
	}
}
