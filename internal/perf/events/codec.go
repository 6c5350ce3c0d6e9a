package events

// Columnar RowCodecs for the trace tables. Each codec writes one chunk
// of rows column-major so that like values sit together: event IDs and
// timestamps are delta-encoded (deltas between consecutive events are
// tiny, so varints collapse to one or two bytes), call and region names
// intern into the chunk's string dictionary, and parent links are stored
// relative to the row's own ID (parents are recent, so the delta is
// small). Meta and Enclaves hold a handful of rows, so their codecs are
// plain columns: strings through the dictionary, integers as varints.
//
// Decode runs against untrusted bytes (fuzzed, truncated, bit-flipped
// traces); it relies on the Decoder's sticky error and never panics.

import (
	"sgxperf/internal/evstore"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

type metaCodec struct{}

func (metaCodec) Encode(e *evstore.Encoder, rows []TraceMeta) {
	for i := range rows {
		e.String(rows[i].Workload)
	}
	for i := range rows {
		e.Float64(rows[i].FrequencyHz)
	}
	for i := range rows {
		e.String(rows[i].Mitigation)
	}
	for i := range rows {
		e.Varint(rows[i].TransitionCycles)
	}
}

func (metaCodec) Decode(d *evstore.Decoder, rows []TraceMeta) {
	for i := range rows {
		rows[i].Workload = d.String()
	}
	for i := range rows {
		rows[i].FrequencyHz = d.Float64()
	}
	for i := range rows {
		rows[i].Mitigation = d.String()
	}
	for i := range rows {
		rows[i].TransitionCycles = d.Varint()
	}
}

type enclaveCodec struct{}

func (enclaveCodec) Encode(e *evstore.Encoder, rows []EnclaveMeta) {
	for i := range rows {
		e.Uvarint(uint64(rows[i].Enclave))
	}
	for i := range rows {
		e.String(rows[i].Name)
	}
	for i := range rows {
		e.Varint(int64(rows[i].NumPages))
	}
	for i := range rows {
		e.String(rows[i].EDL)
	}
}

func (enclaveCodec) Decode(d *evstore.Decoder, rows []EnclaveMeta) {
	for i := range rows {
		rows[i].Enclave = sgx.EnclaveID(d.Uvarint())
	}
	for i := range rows {
		rows[i].Name = d.String()
	}
	for i := range rows {
		rows[i].NumPages = int(d.Varint())
	}
	for i := range rows {
		rows[i].EDL = d.String()
	}
}

type callCodec struct{}

//sgxperf:hotpath
func (c callCodec) Encode(e *evstore.Encoder, rows []CallEvent) {
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].ID) - prev)
		prev = int64(rows[i].ID)
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Kind))
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Enclave))
	}
	for i := range rows {
		e.Varint(int64(rows[i].Thread))
	}
	for i := range rows {
		e.Varint(int64(rows[i].CallID))
	}
	for i := range rows {
		e.String(rows[i].Name)
	}
	prev = 0
	for i := range rows {
		e.Varint(int64(rows[i].Start) - prev)
		prev = int64(rows[i].Start)
	}
	for i := range rows {
		e.Varint(int64(rows[i].End - rows[i].Start))
	}
	for i := range rows {
		e.Varint(int64(rows[i].Parent) - int64(rows[i].ID))
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].AEXCount))
	}
	for i := range rows {
		b := uint64(0)
		if rows[i].Err {
			b = 1
		}
		e.Uvarint(b)
	}
}

//sgxperf:hotpath
func (c callCodec) Decode(d *evstore.Decoder, rows []CallEvent) {
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].ID = EventID(prev)
	}
	for i := range rows {
		rows[i].Kind = CallKind(d.Uvarint())
	}
	for i := range rows {
		rows[i].Enclave = sgx.EnclaveID(d.Uvarint())
	}
	for i := range rows {
		rows[i].Thread = sgx.ThreadID(d.Varint())
	}
	for i := range rows {
		rows[i].CallID = int(d.Varint())
	}
	for i := range rows {
		rows[i].Name = d.String()
	}
	prev = 0
	for i := range rows {
		prev += d.Varint()
		rows[i].Start = vtime.Cycles(prev)
	}
	for i := range rows {
		rows[i].End = rows[i].Start + vtime.Cycles(d.Varint())
	}
	for i := range rows {
		rows[i].Parent = rows[i].ID + EventID(d.Varint())
	}
	for i := range rows {
		rows[i].AEXCount = int(d.Uvarint())
	}
	for i := range rows {
		rows[i].Err = d.Uvarint() != 0
	}
}

type aexCodec struct{}

//sgxperf:hotpath
func (c aexCodec) Encode(e *evstore.Encoder, rows []AEXEvent) {
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].ID) - prev)
		prev = int64(rows[i].ID)
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Enclave))
	}
	for i := range rows {
		e.Varint(int64(rows[i].Thread))
	}
	prev = 0
	for i := range rows {
		e.Varint(int64(rows[i].Time) - prev)
		prev = int64(rows[i].Time)
	}
	for i := range rows {
		e.Varint(int64(rows[i].During) - int64(rows[i].ID))
	}
}

//sgxperf:hotpath
func (c aexCodec) Decode(d *evstore.Decoder, rows []AEXEvent) {
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].ID = EventID(prev)
	}
	for i := range rows {
		rows[i].Enclave = sgx.EnclaveID(d.Uvarint())
	}
	for i := range rows {
		rows[i].Thread = sgx.ThreadID(d.Varint())
	}
	prev = 0
	for i := range rows {
		prev += d.Varint()
		rows[i].Time = vtime.Cycles(prev)
	}
	for i := range rows {
		rows[i].During = rows[i].ID + EventID(d.Varint())
	}
}

type pagingCodec struct{}

//sgxperf:hotpath
func (c pagingCodec) Encode(e *evstore.Encoder, rows []PagingEvent) {
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].ID) - prev)
		prev = int64(rows[i].ID)
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Kind))
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Enclave))
	}
	for i := range rows {
		e.Varint(int64(rows[i].Thread))
	}
	for i := range rows {
		e.Uvarint(rows[i].Vaddr)
	}
	for i := range rows {
		e.String(rows[i].PageKind)
	}
	prev = 0
	for i := range rows {
		e.Varint(int64(rows[i].Time) - prev)
		prev = int64(rows[i].Time)
	}
}

//sgxperf:hotpath
func (c pagingCodec) Decode(d *evstore.Decoder, rows []PagingEvent) {
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].ID = EventID(prev)
	}
	for i := range rows {
		rows[i].Kind = PagingKind(d.Uvarint())
	}
	for i := range rows {
		rows[i].Enclave = sgx.EnclaveID(d.Uvarint())
	}
	for i := range rows {
		rows[i].Thread = sgx.ThreadID(d.Varint())
	}
	for i := range rows {
		rows[i].Vaddr = d.Uvarint()
	}
	for i := range rows {
		rows[i].PageKind = d.String()
	}
	prev = 0
	for i := range rows {
		prev += d.Varint()
		rows[i].Time = vtime.Cycles(prev)
	}
}

type syncCodec struct{}

//sgxperf:hotpath
func (c syncCodec) Encode(e *evstore.Encoder, rows []SyncEvent) {
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].ID) - prev)
		prev = int64(rows[i].ID)
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Kind))
	}
	for i := range rows {
		e.Varint(int64(rows[i].Thread))
	}
	prev = 0
	for i := range rows {
		e.Varint(int64(rows[i].Time) - prev)
		prev = int64(rows[i].Time)
	}
	for i := range rows {
		e.Varint(int64(rows[i].Call) - int64(rows[i].ID))
	}
	// Targets: a length column, then every target flattened. Almost all
	// rows are sleeps with no targets, so this column is mostly zeros.
	for i := range rows {
		e.Uvarint(uint64(len(rows[i].Targets)))
	}
	for i := range rows {
		for _, t := range rows[i].Targets {
			e.Varint(int64(t))
		}
	}
}

//sgxperf:hotpath
func (c syncCodec) Decode(d *evstore.Decoder, rows []SyncEvent) {
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].ID = EventID(prev)
	}
	for i := range rows {
		rows[i].Kind = SyncKind(d.Uvarint())
	}
	for i := range rows {
		rows[i].Thread = sgx.ThreadID(d.Varint())
	}
	prev = 0
	for i := range rows {
		prev += d.Varint()
		rows[i].Time = vtime.Cycles(prev)
	}
	for i := range rows {
		rows[i].Call = rows[i].ID + EventID(d.Varint())
	}
	lens := make([]int, len(rows))
	for i := range rows {
		lens[i] = d.Length()
	}
	for i := range rows {
		if lens[i] == 0 {
			continue // keep nil, matching the encoded representation
		}
		ts := make([]sgx.ThreadID, lens[i])
		for j := range ts {
			ts[j] = sgx.ThreadID(d.Varint())
		}
		rows[i].Targets = ts
	}
}

type switchlessCodec struct{}

//sgxperf:hotpath
func (c switchlessCodec) Encode(e *evstore.Encoder, rows []SwitchlessEvent) {
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].ID) - prev)
		prev = int64(rows[i].ID)
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Kind))
	}
	for i := range rows {
		e.Uvarint(uint64(rows[i].Enclave))
	}
	for i := range rows {
		e.Varint(int64(rows[i].Thread))
	}
	for i := range rows {
		e.Varint(int64(rows[i].CallID))
	}
	for i := range rows {
		e.String(rows[i].Name)
	}
	prev = 0
	for i := range rows {
		e.Varint(int64(rows[i].Start) - prev)
		prev = int64(rows[i].Start)
	}
	for i := range rows {
		e.Varint(int64(rows[i].End - rows[i].Start))
	}
	for i := range rows {
		e.Varint(int64(rows[i].Worker))
	}
	for i := range rows {
		b := uint64(0)
		if rows[i].Fallback {
			b = 1
		}
		e.Uvarint(b)
	}
	for i := range rows {
		b := uint64(0)
		if rows[i].Err {
			b = 1
		}
		e.Uvarint(b)
	}
}

//sgxperf:hotpath
func (c switchlessCodec) Decode(d *evstore.Decoder, rows []SwitchlessEvent) {
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].ID = EventID(prev)
	}
	for i := range rows {
		rows[i].Kind = CallKind(d.Uvarint())
	}
	for i := range rows {
		rows[i].Enclave = sgx.EnclaveID(d.Uvarint())
	}
	for i := range rows {
		rows[i].Thread = sgx.ThreadID(d.Varint())
	}
	for i := range rows {
		rows[i].CallID = int(d.Varint())
	}
	for i := range rows {
		rows[i].Name = d.String()
	}
	prev = 0
	for i := range rows {
		prev += d.Varint()
		rows[i].Start = vtime.Cycles(prev)
	}
	for i := range rows {
		rows[i].End = rows[i].Start + vtime.Cycles(d.Varint())
	}
	for i := range rows {
		rows[i].Worker = sgx.ThreadID(d.Varint())
	}
	for i := range rows {
		rows[i].Fallback = d.Uvarint() != 0
	}
	for i := range rows {
		rows[i].Err = d.Uvarint() != 0
	}
}

type threadCodec struct{}

//sgxperf:hotpath
func (c threadCodec) Encode(e *evstore.Encoder, rows []ThreadEvent) {
	for i := range rows {
		e.Varint(int64(rows[i].Thread))
	}
	for i := range rows {
		e.String(rows[i].Name)
	}
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].Time) - prev)
		prev = int64(rows[i].Time)
	}
}

//sgxperf:hotpath
func (c threadCodec) Decode(d *evstore.Decoder, rows []ThreadEvent) {
	for i := range rows {
		rows[i].Thread = sgx.ThreadID(d.Varint())
	}
	for i := range rows {
		rows[i].Name = d.String()
	}
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].Time = vtime.Cycles(prev)
	}
}
