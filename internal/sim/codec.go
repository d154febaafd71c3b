package sim

import (
	"fmt"
	"math"
	"strconv"
)

// The consensus problems in FLM85 use Boolean inputs/outputs (Byzantine
// agreement, weak agreement, firing squad) or real-valued ones
// (approximate agreement, clock synchronization). Inputs, payload
// fragments, and decisions are canonically encoded strings so that
// behavior equality is byte equality.

// EncodeBool canonically encodes a Boolean as "0" or "1".
func EncodeBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// DecodeBool parses a canonical Boolean.
func DecodeBool(s string) (bool, error) {
	switch s {
	case "0":
		return false, nil
	case "1":
		return true, nil
	default:
		return false, fmt.Errorf("sim: %q is not a canonical boolean", s)
	}
}

// BoolInput returns the Input encoding of a Boolean.
func BoolInput(b bool) Input { return Input(EncodeBool(b)) }

// EncodeReal canonically encodes a float64 with full round-trip
// precision.
func EncodeReal(x float64) string {
	return strconv.FormatFloat(x, 'g', 17, 64)
}

// DecodeReal parses a canonical real: a finite value written exactly as
// EncodeReal writes it. Every other form ParseFloat reads ("0x1p3",
// "1_0", "+1", "1e0", "Inf", "NaN", ...) is rejected, so a faulty
// node's payload is read as a value only when an honest one could have
// sent it.
func DecodeReal(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("sim: %q is not a canonical real: %w", s, err)
	}
	var buf [32]byte
	if math.IsInf(x, 0) || math.IsNaN(x) || string(strconv.AppendFloat(buf[:0], x, 'g', 17, 64)) != s {
		return 0, fmt.Errorf("sim: %q is not a canonical real", s)
	}
	return x, nil
}

// RealInput returns the Input encoding of a real value.
func RealInput(x float64) Input { return Input(EncodeReal(x)) }

// EncodeInt canonically encodes an integer.
func EncodeInt(n int) string { return strconv.Itoa(n) }

// DecodeInt parses a canonical integer: one EncodeInt writes back byte
// for byte, so "+3", "007" and "-0" are rejected.
func DecodeInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("sim: %q is not a canonical integer: %w", s, err)
	}
	var buf [20]byte
	if string(strconv.AppendInt(buf[:0], int64(n), 10)) != s {
		return 0, fmt.Errorf("sim: %q is not a canonical integer", s)
	}
	return n, nil
}
