package chaos

import "time"

// A directive in the doc comment silences the whole declaration.
//
//flmlint:allow flmdeterminism fixture: timing here feeds a log line only
func allowedWholeDecl() {
	_ = time.Now()
	_ = time.Since(time.Now())
}

func allowedSingleLine() {
	//flmlint:allow flmdeterminism fixture: this one read is justified
	_ = time.Now()
	_ = time.Now() // the directive covers only the lines above // want `time\.Now in deterministic package`
}

// A directive that silences nothing is itself a finding, so an exception
// cannot outlive the code it excused. A directive for an analyzer that
// did not run is not judged.
func allowedNothing() {
	//flmlint:allow flmdeterminism fixture: nothing below reads the clock // want `flmlint directive for flmdeterminism silences nothing`
	_ = 0
	//flmlint:allow flmobscost fixture: flmobscost does not run on this fixture
	_ = 1
}
