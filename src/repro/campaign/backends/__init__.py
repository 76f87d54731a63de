"""Campaign dispatch onto worker processes.

:mod:`repro.campaign.backends.directory` holds the one multi-worker
path: the work-stealing lease protocol on a campaign directory, the
``repro campaign worker`` loop, and ``dispatch``, which
:func:`~repro.campaign.runner.run_campaign` uses for every run with
more than one worker or a persistent campaign directory.  A one-worker
run needs no process and no directory: the runner executes its jobs in
process.
"""
