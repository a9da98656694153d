package sweep

// Field-drift guards for the grid's two translations. gridOf copies Spec
// fields into the resume identity and Spec.Sizing/translate copy them into
// the engine configs, all by hand; a knob added to Spec or dispatch.Sizing
// without a matching copy would silently fall out of the resume identity
// or never reach an engine. These tests enumerate the fields by
// reflection, so adding one fails here first.

import (
	"reflect"
	"testing"

	"marvel/internal/config"
	"marvel/internal/dispatch"
)

// manifestExempt lists the Spec fields deliberately left out of the
// resume identity, with the reason each may differ between a sweep and
// its resume.
var manifestExempt = map[string]string{
	"LadderRungs":  "verdicts and digests are bit-identical for every ladder depth",
	"Workers":      "verdicts are identical for every worker count",
	"CellParallel": "cell scheduling never enters a cell's verdicts",
	"OutDir":       "where the journal lives, not what it holds",
	"OnProgress":   "observer (json:\"-\")",
	"OnVerdict":    "observer (json:\"-\")",
	"Goldens":      "golden source is bit-invisible in the verdict stream (json:\"-\")",
	"Metrics":      "observer (json:\"-\")",
	"Profile":      "observer (json:\"-\")",
}

// setDistinct sets v, a settable field, to a non-zero value derived from
// seed, so fields set from different seeds differ.
func setDistinct(t *testing.T, v reflect.Value, seed int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(seed + 3))
	case reflect.Float64:
		v.SetFloat(float64(seed+3) / 1000)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s" + string(rune('a'+seed)))
	case reflect.Slice:
		v.Set(reflect.ValueOf([]string{"s" + string(rune('a'+seed))}))
	default:
		t.Fatalf("no distinct value for kind %s", v.Kind())
	}
}

func TestManifestGridCoversSpec(t *testing.T) {
	specT, gridT := reflect.TypeOf(Spec{}), reflect.TypeOf(manifestGrid{})
	for i := 0; i < specT.NumField(); i++ {
		name := specT.Field(i).Name
		_, inGrid := gridT.FieldByName(name)
		_, exempt := manifestExempt[name]
		if inGrid == exempt {
			t.Errorf("Spec.%s: in manifestGrid=%v, exempt=%v; serialize it in gridOf or exempt it with a reason, not both or neither", name, inGrid, exempt)
		}
	}
	for name := range manifestExempt {
		if _, ok := specT.FieldByName(name); !ok {
			t.Errorf("exemption for %s names no Spec field", name)
		}
	}
	// Every grid field is copied from its Spec field by gridOf.
	var spec Spec
	sv := reflect.ValueOf(&spec).Elem()
	for i := 0; i < gridT.NumField(); i++ {
		f := sv.FieldByName(gridT.Field(i).Name)
		if !f.IsValid() {
			t.Fatalf("manifestGrid.%s has no Spec field", gridT.Field(i).Name)
		}
		setDistinct(t, f, i)
	}
	grid := reflect.ValueOf(gridOf(spec))
	for i := 0; i < gridT.NumField(); i++ {
		name := gridT.Field(i).Name
		if got, want := grid.Field(i).Interface(), sv.FieldByName(name).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("gridOf drops Spec.%s: got %v, want %v", name, got, want)
		}
	}
}

// stubGoldens serves empty goldens, so translate runs without a golden
// phase.
type stubGoldens struct{}

func (stubGoldens) CPUGolden(string, func() (*CPUGolden, error)) (*CPUGolden, bool, error) {
	return &CPUGolden{}, true, nil
}

func (stubGoldens) AccelGolden(string, func() (*AccelGolden, error)) (*AccelGolden, bool, error) {
	return &AccelGolden{}, true, nil
}

func TestSizingReachesBothEngines(t *testing.T) {
	var spec Spec
	sv := reflect.ValueOf(&spec).Elem()
	szT := reflect.TypeOf(dispatch.Sizing{})
	for i := 0; i < szT.NumField(); i++ {
		f := sv.FieldByName(szT.Field(i).Name)
		if !f.IsValid() || f.Type() != szT.Field(i).Type {
			t.Fatalf("Spec has no %s field of type %s", szT.Field(i).Name, szT.Field(i).Type)
		}
		setDistinct(t, f, i)
	}
	want := spec.Sizing()
	wv := reflect.ValueOf(want)
	for i := 0; i < szT.NumField(); i++ {
		if got := wv.Field(i).Interface(); got != sv.FieldByName(szT.Field(i).Name).Interface() {
			t.Errorf("Spec.Sizing drops %s: got %v", szT.Field(i).Name, got)
		}
	}
	for _, cell := range []Cell{
		{Kind: KindCPU, ISA: "riscv", Workload: "crc32", Target: "prf", Model: "transient"},
		{Kind: KindAccel, Design: "gemm", Component: "MATRIX1", Model: "transient"},
	} {
		c, _, err := spec.translate(config.Fast(), cell, spec.Workers, stubGoldens{})
		if err != nil {
			t.Fatal(err)
		}
		got := c.cpu.Sizing
		if cell.Kind == KindAccel {
			got = c.accel.Sizing
		}
		if got != want {
			t.Errorf("%s cell: engine sizing %+v, want %+v", cell.Kind, got, want)
		}
	}
}
