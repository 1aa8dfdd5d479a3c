"""TMF005 violations silenced line by line."""


class HardwiredLock:
    def entry(self, pid):
        yield self.x.write(pid)
        yield delay(1.5)  # repro-lint: disable=TMF005
        yield ops.delay(0)  # repro-lint: disable=TMF005
        value = yield self.x.read()
        if value != pid:
            yield Delay(-2)  # repro-lint: disable=TMF005
        yield ops.nap(0.005)  # repro-lint: disable=TMF005
