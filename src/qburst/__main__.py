from .searchcli import main

raise SystemExit(main())
