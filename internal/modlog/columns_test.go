package modlog

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/table"
)

func genEvents(t *testing.T, years ...int) []Event {
	t.Helper()
	var all []Event
	for _, y := range years {
		evs, err := CampusModulesModel(y).Generate(rng.New(11).SplitNamed("modlog-test"))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
	}
	return all
}

func TestEventColumnsRoundTrip(t *testing.T) {
	events := genEvents(t, 2024)
	for _, bs := range []int{100, 4096, len(events) + 1} {
		tab, err := table.FromSlice[Event](EventCodec{}, table.Options{BatchSize: bs}, events)
		if err != nil {
			t.Fatal(err)
		}
		got, err := table.Rows[Event](tab)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("BatchSize=%d: events differ after columnar round trip", bs)
		}
	}
}

// TestEventColumnsRejectUnknownCodes: a decoded row whose dictionary
// code names no entry is an error from DecodeFrom, not a panic in Row.
func TestEventColumnsRejectUnknownCodes(t *testing.T) {
	for _, tc := range []struct{ user, module uint64 }{{1, 0}, {0, 1}} {
		var buf bytes.Buffer
		w := table.NewWriter(&buf)
		w.Uvarint(1) // user dictionary
		w.String("u")
		w.Uvarint(1) // module dictionary
		w.String("m")
		w.Uvarint(1) // rows
		w.Varint(0)
		w.Varint(2024)
		w.Uvarint(tc.user)
		w.Uvarint(tc.module)
		cols := EventCodec{}.NewColumns()
		if err := cols.DecodeFrom(table.NewReader(bytes.NewReader(buf.Bytes()))); err == nil {
			t.Fatalf("codes (%d, %d) into one-entry dictionaries decoded without error", tc.user, tc.module)
		}
	}
}

func TestEventColumnsSpillRoundTrip(t *testing.T) {
	events := genEvents(t, 2011)
	tab, err := table.FromSlice[Event](EventCodec{}, table.Options{
		BatchSize: 1024, SpillDir: t.TempDir(), Resident: 2,
	}, events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := table.Rows[Event](tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("events differ after spill round trip")
	}
}

func TestAggregateByYearTableMatchesSliceAcrossShards(t *testing.T) {
	events := genEvents(t, 2011, 2024)
	want := AggregateByYear(events)
	tab, err := table.FromSlice[Event](EventCodec{}, table.Options{BatchSize: 500}, events)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 7} {
		got, err := AggregateByYearTable(tab, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: AggregateByYearTable differs from AggregateByYear", shards)
		}
	}
}

func TestCoLoadsTableMatchesSliceAcrossShards(t *testing.T) {
	events := genEvents(t, 2024)
	want, err := CoLoads(events, 2024)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table.FromSlice[Event](EventCodec{}, table.Options{BatchSize: 333}, events)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 7} {
		got, err := CoLoadsTable(tab, 2024, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: CoLoadsTable differs from CoLoads", shards)
		}
	}
	if _, err := CoLoadsTable(tab, 2011, 2); err == nil {
		t.Fatal("CoLoadsTable accepted events from the wrong year")
	}
}
